/* The step body of `hfsac.prefix.walk`, for every walk: up to m steps of a
 * keystream block over a window index, from bit `pos` of the `held` packed
 * bytes `bytes` (MSB first).
 *
 * A step takes its jump target where it has one, else the state the last
 * step carried over, and looks its window, the 8 bits from its first bit,
 * up at (state << 8) | window.  An entry below -1 links to a child node:
 * its first entry above 3 bits of the bits its lookup drops, as
 * -2 - (start << 3 | drop).  The node is looked up with the window 8 bits
 * further on.  Bytes past the held ones read as 0.  With `draws` given,
 * the step matches its word complemented from draws[k] % moduli[state] on:
 * every window is XOR-ed with the swap mask of its offset first.
 *
 * Writes each step's row to `rows` and returns the number of steps matched:
 * m, or fewer where a window matches nothing or a step starts past the one
 * window after the held bytes' end.  Built and loaded by `hfsac.prefix`.
 */
#include <stdint.h>

/* the bits of a window at or past `swap` (relative to the window's first
 * bit) complemented.  The shift is clamped to 8, which gives 0, since a
 * shift by the type's width or more is undefined in C.  The clamp keeps
 * its conditional moves off the window's dependency chain: a select on the
 * window put one there, and the loop without draws ran ~12 % slower (gcc
 * 12, -O2, 2 vCPUs) */
static inline int swap_mask(int64_t swap)
{
    return 0xFF >> (swap < 0 ? 0 : swap > 8 ? 8 : swap);
}

/* the 8 bits from bit p: a big-endian 16-bit read of the byte holding p
 * and the next, shifted right by 8 - p % 8 */
static inline int window(const uint8_t *bytes, int64_t held, int64_t p)
{
    int64_t i = p >> 3;
    int hi = i < held ? bytes[i] : 0, lo = i + 1 < held ? bytes[i + 1] : 0;
    return ((hi << 8 | lo) >> (8 - (p & 7))) & 0xFF;
}

int64_t walk_block(
    const int32_t *index, const int32_t *lengths, const int32_t *next_state,
    const uint64_t *moduli, const uint8_t *bytes, int64_t held, int64_t pos,
    int64_t state, const int64_t *targets, const uint64_t *draws, int64_t m,
    int64_t *rows)
{
    int64_t k;
    for (k = 0; k < m && pos <= 8 * held; k++) {
        if (targets[k] >= 0)
            state = targets[k];
        /* past every word: nothing is complemented */
        int64_t swap = draws ? (int64_t)(draws[k] % moduli[state]) : INT64_MAX;
        int32_t entry = index[state << 8 | (window(bytes, held, pos) ^ swap_mask(swap))];
        for (int64_t off = 8; entry < -1; off += 8) {
            int32_t link = -2 - entry;
            int w = window(bytes, held, pos + off) ^ swap_mask(swap - off);
            entry = index[(link >> 3) + (w >> (link & 7))];
        }
        if (entry < 0)
            break;
        rows[k] = entry;
        pos += lengths[entry];
        state = next_state[entry];
    }
    return k;
}
