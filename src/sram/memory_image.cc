#include "sram/memory_image.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace voltboot
{

MemoryImage
MemoryImage::filled(size_t size, uint8_t value)
{
    return MemoryImage(std::vector<uint8_t>(size, value));
}

bool
MemoryImage::bitAt(size_t bit) const
{
    const size_t byte = bit / 8;
    if (byte >= bytes_.size())
        panic("MemoryImage: bit index out of range: ", bit);
    return (bytes_[byte] >> (bit % 8)) & 1;
}

MemoryImage
MemoryImage::slice(size_t offset, size_t length) const
{
    if (offset + length > bytes_.size())
        panic("MemoryImage: slice out of range");
    return MemoryImage(std::vector<uint8_t>(bytes_.begin() + offset,
                                            bytes_.begin() + offset +
                                                length));
}

size_t
MemoryImage::popcount() const
{
    size_t total = 0;
    for (uint8_t b : bytes_)
        total += std::popcount(b);
    return total;
}

double
MemoryImage::onesDensity() const
{
    if (bytes_.empty())
        return 0.0;
    return static_cast<double>(popcount()) / static_cast<double>(sizeBits());
}

double
MemoryImage::byteEntropy() const
{
    if (bytes_.empty())
        return 0.0;
    std::array<size_t, 256> counts{};
    for (uint8_t b : bytes_)
        ++counts[b];
    double h = 0.0;
    const double n = static_cast<double>(bytes_.size());
    for (size_t c : counts) {
        if (c == 0)
            continue;
        const double p = static_cast<double>(c) / n;
        h -= p * std::log2(p);
    }
    return h;
}

size_t
MemoryImage::hammingDistance(const MemoryImage &a, const MemoryImage &b)
{
    if (a.sizeBytes() != b.sizeBytes())
        panic("MemoryImage: hammingDistance on images of different size (",
              a.sizeBytes(), " vs ", b.sizeBytes(), ")");
    size_t total = 0;
    for (size_t i = 0; i < a.bytes_.size(); ++i)
        total += std::popcount(
            static_cast<uint8_t>(a.bytes_[i] ^ b.bytes_[i]));
    return total;
}

double
MemoryImage::fractionalHamming(const MemoryImage &a, const MemoryImage &b)
{
    if (a.sizeBits() == 0)
        return 0.0;
    return static_cast<double>(hammingDistance(a, b)) /
           static_cast<double>(a.sizeBits());
}

std::vector<size_t>
MemoryImage::blockHamming(const MemoryImage &a, const MemoryImage &b,
                          size_t granularity_bits)
{
    if (a.sizeBytes() != b.sizeBytes())
        panic("MemoryImage: blockHamming on images of different size");
    if (granularity_bits == 0 || granularity_bits % 8 != 0)
        fatal("MemoryImage: blockHamming granularity must be a positive "
              "multiple of 8 bits");
    const size_t granularity_bytes = granularity_bits / 8;
    std::vector<size_t> out;
    out.reserve((a.sizeBytes() + granularity_bytes - 1) / granularity_bytes);
    for (size_t base = 0; base < a.sizeBytes(); base += granularity_bytes) {
        const size_t end = std::min(base + granularity_bytes, a.sizeBytes());
        size_t hd = 0;
        for (size_t i = base; i < end; ++i)
            hd += std::popcount(
                static_cast<uint8_t>(a.bytes_[i] ^ b.bytes_[i]));
        out.push_back(hd);
    }
    return out;
}

std::vector<size_t>
MemoryImage::findAll(std::span<const uint8_t> needle) const
{
    std::vector<size_t> hits;
    if (needle.empty() || needle.size() > bytes_.size())
        return hits;
    auto it = bytes_.begin();
    while (true) {
        it = std::search(it, bytes_.end(), needle.begin(), needle.end());
        if (it == bytes_.end())
            break;
        hits.push_back(static_cast<size_t>(it - bytes_.begin()));
        ++it;
    }
    return hits;
}

bool
MemoryImage::contains(std::span<const uint8_t> needle) const
{
    if (needle.empty() || needle.size() > bytes_.size())
        return false;
    return std::search(bytes_.begin(), bytes_.end(), needle.begin(),
                       needle.end()) != bytes_.end();
}

std::string
MemoryImage::toPbm(size_t width_bits) const
{
    if (width_bits == 0)
        fatal("MemoryImage: PBM width must be nonzero");
    const size_t total_bits = sizeBits();
    const size_t height = (total_bits + width_bits - 1) / width_bits;
    std::ostringstream os;
    os << "P1\n" << width_bits << " " << height << "\n";
    for (size_t y = 0; y < height; ++y) {
        for (size_t x = 0; x < width_bits; ++x) {
            const size_t bit = y * width_bits + x;
            const int v = bit < total_bits ? (bitAt(bit) ? 1 : 0) : 0;
            os << v << (x + 1 == width_bits ? '\n' : ' ');
        }
    }
    return os.str();
}

std::string
MemoryImage::hexdump(size_t max_bytes) const
{
    static const char *digits = "0123456789abcdef";
    std::ostringstream os;
    const size_t n = std::min(max_bytes, bytes_.size());
    for (size_t base = 0; base < n; base += 16) {
        os << std::hex;
        for (int shift = 28; shift >= 0; shift -= 4)
            os << digits[(base >> shift) & 0xf];
        os << "  ";
        for (size_t i = base; i < std::min(base + 16, n); ++i) {
            os << digits[bytes_[i] >> 4] << digits[bytes_[i] & 0xf] << ' ';
        }
        os << '\n';
    }
    if (n < bytes_.size())
        os << "... (" << std::dec << bytes_.size() - n << " more bytes)\n";
    return os.str();
}

} // namespace voltboot
