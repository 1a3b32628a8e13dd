#include "crypto/aes.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace voltboot
{

namespace
{

/** Multiply in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1. */
uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        const bool hi = a & 0x80;
        a <<= 1;
        if (hi)
            a ^= 0x1b;
        b >>= 1;
    }
    return p;
}

/** Build the S-box from the field inverse + affine map (no magic table). */
std::array<uint8_t, 256>
buildSbox()
{
    // Inverses via brute force; 256x256 is trivial at startup.
    std::array<uint8_t, 256> inv{};
    for (int a = 1; a < 256; ++a) {
        for (int b = 1; b < 256; ++b) {
            if (gmul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) ==
                1) {
                inv[a] = static_cast<uint8_t>(b);
                break;
            }
        }
    }
    std::array<uint8_t, 256> sbox{};
    for (int x = 0; x < 256; ++x) {
        const uint8_t b = inv[x];
        uint8_t r = 0;
        for (int i = 0; i < 8; ++i) {
            const int bit = ((b >> i) & 1) ^ ((b >> ((i + 4) % 8)) & 1) ^
                            ((b >> ((i + 5) % 8)) & 1) ^
                            ((b >> ((i + 6) % 8)) & 1) ^
                            ((b >> ((i + 7) % 8)) & 1) ^
                            ((0x63 >> i) & 1);
            r |= static_cast<uint8_t>(bit) << i;
        }
        sbox[x] = r;
    }
    return sbox;
}

std::array<uint8_t, 256>
buildInvSbox(const std::array<uint8_t, 256> &sbox)
{
    std::array<uint8_t, 256> inv{};
    for (int i = 0; i < 256; ++i)
        inv[sbox[i]] = static_cast<uint8_t>(i);
    return inv;
}

const std::array<uint8_t, 256> &
invSbox()
{
    static const std::array<uint8_t, 256> table = buildInvSbox(Aes::sbox());
    return table;
}

void
subBytes(uint8_t *s)
{
    for (int i = 0; i < 16; ++i)
        s[i] = Aes::sbox()[s[i]];
}

void
invSubBytes(uint8_t *s)
{
    for (int i = 0; i < 16; ++i)
        s[i] = invSbox()[s[i]];
}

// State layout: s[r + 4*c] — column-major, as in FIPS-197.
void
shiftRows(uint8_t *s)
{
    uint8_t t[16];
    std::memcpy(t, s, 16);
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            s[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
}

void
invShiftRows(uint8_t *s)
{
    uint8_t t[16];
    std::memcpy(t, s, 16);
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            s[r + 4 * ((c + r) % 4)] = t[r + 4 * c];
}

void
mixColumns(uint8_t *s)
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3;
        col[1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3;
        col[2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3);
        col[3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2);
    }
}

void
invMixColumns(uint8_t *s)
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

void
addRoundKey(uint8_t *s, const uint8_t *rk)
{
    for (int i = 0; i < 16; ++i)
        s[i] ^= rk[i];
}

} // namespace

const std::array<uint8_t, 256> &
Aes::sbox()
{
    static const std::array<uint8_t, 256> table = buildSbox();
    return table;
}

namespace
{

/** Words in the largest (AES-256) schedule. */
constexpr size_t kMaxScheduleWords = 60;

/** Schedule word at @p p, byte 0 in the low bits (any host order). */
inline uint32_t
loadWord(const uint8_t *p)
{
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
}

/**
 * Schedule word i of a key of @p nk words, from w[i-1] (@p prev) and
 * w[i-Nk] (@p back): RotWord + SubWord + Rcon on every Nk-th word,
 * AES-256's extra SubWord half-way between, then the XOR with w[i-Nk].
 * The only copy of the key-schedule step.
 */
inline uint32_t
nextWord(uint32_t prev, uint32_t back, size_t i, size_t nk,
         const uint8_t *sbox)
{
    // Rcon[j] = x^(j-1) in GF(2^8); AES-128 consumes the most (10).
    static constexpr uint8_t kRcon[] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                        0x20, 0x40, 0x80, 0x1b, 0x36};
    auto sub = [sbox](uint32_t v, unsigned byte) {
        return uint32_t{sbox[(v >> (8 * byte)) & 0xff]};
    };
    if (i % nk == 0)
        prev = (sub(prev, 1) ^ kRcon[i / nk - 1]) | sub(prev, 2) << 8 |
               sub(prev, 3) << 16 | sub(prev, 0) << 24;
    else if (nk > 6 && i % nk == 4)
        prev = sub(prev, 0) | sub(prev, 1) << 8 | sub(prev, 2) << 16 |
               sub(prev, 3) << 24;
    return back ^ prev;
}

/**
 * Read @p key into the first Nk entries of @p w and derive the schedule
 * words up to @p end_word after it. With a @p window, also count the
 * bits of words [first_word, end_word) that disagree with it, stopping
 * once the count reaches @p bound. Words live in registers and a
 * uint32_t array, so no byte store is ever reloaded as a word.
 */
size_t
deriveWords(std::span<const uint8_t> key, uint32_t *w, size_t end_word,
            const uint8_t *window = nullptr, size_t first_word = 0,
            size_t bound = SIZE_MAX)
{
    const size_t nk = key.size() / 4;
    for (size_t i = 0; i < nk; ++i)
        w[i] = loadWord(key.data() + i * 4);
    const uint8_t *sbox = Aes::sbox().data();
    size_t errors = 0;
    for (size_t i = 0; i < end_word; ++i) {
        if (i >= nk)
            w[i] = nextWord(w[i - 1], w[i - nk], i, nk, sbox);
        if (!window || i < first_word)
            continue;
        errors += static_cast<size_t>(
            std::popcount(w[i] ^ loadWord(window + i * 4)));
        if (errors >= bound)
            break;
    }
    return errors;
}

} // namespace

size_t
Aes::scheduleBytes(size_t key_bytes)
{
    switch (key_bytes) {
      case 16: return 176;
      case 24: return 208;
      case 32: return 240;
      default:
        fatal("Aes: key must be 16, 24 or 32 bytes, got ", key_bytes);
    }
}

std::vector<uint8_t>
Aes::expandKey(std::span<const uint8_t> key)
{
    std::vector<uint8_t> schedule(scheduleBytes(key.size()));
    uint32_t w[kMaxScheduleWords];
    deriveWords(key, w, schedule.size() / 4);
    for (size_t i = 0; i < schedule.size(); ++i)
        schedule[i] = static_cast<uint8_t>(w[i / 4] >> (8 * (i % 4)));
    return schedule;
}

size_t
Aes::scheduleDistance(std::span<const uint8_t> key,
                      std::span<const uint8_t> window, size_t first_word,
                      size_t end_word, size_t bound)
{
    if (end_word * 4 > std::min(window.size(), scheduleBytes(key.size())))
        fatal("Aes: distance range of ", end_word,
              " words overruns the window or schedule");
    uint32_t w[kMaxScheduleWords];
    return deriveWords(key, w, end_word, window.data(), first_word, bound);
}

Aes::Aes(std::span<const uint8_t> key)
    : key_bytes_(key.size()),
      rounds_(key.size() == 16 ? 10 : key.size() == 24 ? 12 : 14),
      schedule_(expandKey(key))
{
}

void
Aes::encryptBlock(std::span<uint8_t, 16> block) const
{
    uint8_t *s = block.data();
    addRoundKey(s, schedule_.data());
    for (size_t round = 1; round < rounds_; ++round) {
        subBytes(s);
        shiftRows(s);
        mixColumns(s);
        addRoundKey(s, schedule_.data() + 16 * round);
    }
    subBytes(s);
    shiftRows(s);
    addRoundKey(s, schedule_.data() + 16 * rounds_);
}

void
Aes::decryptBlock(std::span<uint8_t, 16> block) const
{
    uint8_t *s = block.data();
    addRoundKey(s, schedule_.data() + 16 * rounds_);
    for (size_t round = rounds_ - 1; round >= 1; --round) {
        invShiftRows(s);
        invSubBytes(s);
        addRoundKey(s, schedule_.data() + 16 * round);
        invMixColumns(s);
    }
    invShiftRows(s);
    invSubBytes(s);
    addRoundKey(s, schedule_.data());
}

std::vector<uint8_t>
Aes::encryptEcb(std::span<const uint8_t> data) const
{
    if (data.size() % 16)
        fatal("Aes: ECB length must be a multiple of 16");
    std::vector<uint8_t> out(data.begin(), data.end());
    for (size_t i = 0; i < out.size(); i += 16)
        encryptBlock(std::span<uint8_t, 16>(out.data() + i, 16));
    return out;
}

std::vector<uint8_t>
Aes::decryptEcb(std::span<const uint8_t> data) const
{
    if (data.size() % 16)
        fatal("Aes: ECB length must be a multiple of 16");
    std::vector<uint8_t> out(data.begin(), data.end());
    for (size_t i = 0; i < out.size(); i += 16)
        decryptBlock(std::span<uint8_t, 16>(out.data() + i, 16));
    return out;
}

} // namespace voltboot
