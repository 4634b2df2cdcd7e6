/**
 * @file
 * Generated test programs shared by several test binaries.
 */

#ifndef CWSIM_TESTS_STRESS_PROGRAMS_HH
#define CWSIM_TESTS_STRESS_PROGRAMS_HH

#include <cstdint>

#include "base/random.hh"
#include "isa/builder.hh"

namespace cwsim
{

/**
 * Directed partial-overlap stressor: every access lands in ONE 16-byte
 * cell, with 1-, 4-, and 8-byte stores and loads at clashing offsets
 * and about half the store data fed through short mul chains so older
 * stores routinely execute after younger ones — the pattern that
 * separates per-byte forwarding-source tracking from a scalar
 * youngest-source summary.
 */
inline Program
partialOverlapStress(uint64_t seed)
{
    Random rng(seed);
    ProgramBuilder b;

    Addr cell = b.dataAlloc(16, 8);
    for (unsigned i = 0; i < 4; ++i)
        b.dataW32(cell + 4 * i, static_cast<uint32_t>(rng.next()));

    const RegId base = ir(16), counter = ir(20);
    b.la(base, cell);
    b.li32(counter, 24 + static_cast<uint32_t>(rng.below(24)));

    auto scratch_int = [&] { return ir(1 + rng.below(12)); };
    auto scratch_fp = [&] { return fr(rng.below(8)); };

    auto loop = b.hereLabel();

    unsigned body_len = 12 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < body_len; ++i) {
        // Half the stores get slow (mul-fed) data.
        auto slow_data = [&](RegId r) {
            if (rng.chance(0.5)) {
                b.mul(r, r, counter);
                b.mul(r, r, r);
            }
            return r;
        };
        switch (rng.below(8)) {
          case 0:
            b.sb(slow_data(scratch_int()), base,
                 static_cast<int32_t>(rng.below(16)));
            break;
          case 1:
            b.sw(slow_data(scratch_int()), base,
                 static_cast<int32_t>(4 * rng.below(4)));
            break;
          case 2:
            // 8-byte store of whatever bits the FP reg holds; pure
            // move, no arithmetic, so arbitrary bit patterns stay
            // deterministic.
            b.sd_f(scratch_fp(), base,
                   static_cast<int32_t>(8 * rng.below(2)));
            break;
          case 3:
            b.lbu(scratch_int(), base,
                  static_cast<int32_t>(rng.below(16)));
            break;
          case 4:
            b.lw(scratch_int(), base,
                 static_cast<int32_t>(4 * rng.below(4)));
            break;
          case 5:
            b.ld_f(scratch_fp(), base,
                   static_cast<int32_t>(8 * rng.below(2)));
            break;
          case 6:
            b.add(scratch_int(), scratch_int(), scratch_int());
            break;
          case 7:
            b.xori(scratch_int(), scratch_int(),
                   static_cast<int32_t>(rng.below(1024)));
            break;
        }
    }

    b.addi(counter, counter, -1);
    b.bne(counter, reg_zero, loop);
    b.halt();
    return b.build();
}

} // namespace cwsim

#endif // CWSIM_TESTS_STRESS_PROGRAMS_HH
