/**
 * @file
 * Shared helpers for the bench harness binaries: banner printing, image
 * saving, artefact number formatting and flag parsing, so each bench
 * reads like the experiment it reproduces.
 */

#ifndef VOLTBOOT_BENCH_BENCH_UTIL_HH
#define VOLTBOOT_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sram/memory_image.hh"

namespace voltboot
{
namespace bench
{

/** Print the experiment banner: which artefact this regenerates. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::cout << "==================================================="
                 "=============\n";
    std::cout << id << ": " << title << "\n";
    std::cout << "==================================================="
                 "=============\n";
}

/** Where bench image artefacts land. */
inline std::string
artefactDir()
{
    return "bench_artifacts";
}

/** Save @p content under bench_artifacts/, best effort. */
inline void
saveArtefact(const std::string &filename, const std::string &content)
{
    std::string dir = artefactDir();
    // Portable best-effort mkdir via std::filesystem would drag in more
    // headers than this needs; rely on the caller's cwd being writable.
    if (std::system(("mkdir -p " + dir).c_str()) != 0)
        std::cout << "  [artefact] mkdir failed for " << dir << "\n";
    std::ofstream out(dir + "/" + filename);
    if (out) {
        out << content;
        std::cout << "  [artefact] " << dir << "/" << filename << "\n";
    } else {
        std::cout << "  [artefact] could not write " << filename << "\n";
    }
}

/**
 * Render a coarse ASCII impression of a bit image (the paper's cache
 * snapshot figures): each character cell is the ones-density of an
 * 8x8-bit block: ' ' mostly 0s, '#' mostly 1s.
 */
inline std::string
asciiBitmap(const MemoryImage &img, size_t width_bits, size_t max_rows = 16)
{
    static const char *shades = " .:-=+*#";
    const size_t rows_total = img.sizeBits() / width_bits;
    const size_t block = 8;
    std::string out;
    for (size_t row = 0; row < rows_total / block && row < max_rows;
         ++row) {
        for (size_t col = 0; col < width_bits / block; ++col) {
            size_t ones = 0;
            for (size_t y = 0; y < block; ++y)
                for (size_t x = 0; x < block; ++x)
                    ones += img.bitAt((row * block + y) * width_bits +
                                      col * block + x);
            out += shades[(ones * 7) / (block * block)];
        }
        out += '\n';
    }
    return out;
}

/** A number in a bench artefact's JSON, fixed at three decimals. */
inline std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/**
 * A bench binary's command line: its name and one-line usage text, and
 * the flag parsers that report a bad value as `<program>: <detail>`
 * plus the usage line on stderr, then exit 2.
 */
struct Usage
{
    const char *program;
    const char *line;

    [[noreturn]] void
    fatal(const std::string &detail) const
    {
        std::cerr << program << ": " << detail << "\n" << line << "\n";
        std::exit(2);
    }

    /** @p text as an unsigned integer; the whole string must parse. */
    uint64_t
    parseUint(const std::string &flag, const std::string &text) const
    {
        uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(
            text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || ptr != text.data() + text.size() ||
            text.empty())
            fatal("malformed value '" + text + "' for " + flag);
        return value;
    }

    /** A `--jobs A,B,...` list: every entry an integer >= 1. */
    std::vector<unsigned>
    parseJobsList(const std::string &text) const
    {
        std::vector<unsigned> jobs;
        size_t pos = 0;
        while (pos <= text.size()) {
            const size_t comma =
                std::min(text.find(',', pos), text.size());
            const uint64_t j =
                parseUint("--jobs", text.substr(pos, comma - pos));
            if (j == 0)
                fatal("--jobs entries must be >= 1");
            jobs.push_back(static_cast<unsigned>(j));
            pos = comma + 1;
        }
        return jobs;
    }
};

} // namespace bench
} // namespace voltboot

#endif // VOLTBOOT_BENCH_BENCH_UTIL_HH
