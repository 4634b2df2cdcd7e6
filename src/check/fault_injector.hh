/**
 * @file
 * Deterministic fault injection for the speculation recovery paths.
 *
 * Each injection point draws from a seeded xorshift PRNG
 * (base/random.hh), so a given (seed, rates, workload, config) tuple
 * reproduces the exact same fault storm run after run. The injectable
 * faults mirror the three classes of state the paper's mechanisms rely
 * on: the recovery machinery (spurious miss-speculations), the
 * address-based scheduler's view of store addresses (posting delays),
 * and the MDPT's contents (dropped / corrupted entries). All three must
 * be performance-only: the oracle commit-state equivalence check proves
 * that squash and selective recovery restore correct architectural
 * state no matter how hard they are stormed.
 */

#ifndef CWSIM_CHECK_FAULT_INJECTOR_HH
#define CWSIM_CHECK_FAULT_INJECTOR_HH

#include "base/random.hh"
#include "base/types.hh"
#include "sim/config.hh"

namespace cwsim
{
namespace check
{

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : cfg(cfg), rng(cfg.seed), armed(cfg.any())
    {}

    bool enabled() const { return armed; }

    /** Store executed: force a spurious violation against a load? */
    bool
    injectSpuriousViolation()
    {
        return armed && draw(cfg.spuriousViolationRate);
    }

    /** Store address posted: extra scheduler-visibility delay. */
    Cycles
    injectStoreAddrDelay()
    {
        if (!armed || !draw(cfg.storeAddrDelayRate))
            return 0;
        return cfg.storeAddrDelay;
    }

    /** Once per cycle: invalidate a random MDPT entry? */
    bool injectMdptDrop() { return armed && draw(cfg.mdptDropRate); }

    /** Once per cycle: scramble a random MDPT entry? */
    bool
    injectMdptCorrupt()
    {
        return armed && draw(cfg.mdptCorruptRate);
    }

    /** Raw PRNG for pickers (victim selection, scramble values). */
    Random &random() { return rng; }

  private:
    bool
    draw(double rate)
    {
        return rate > 0 && rng.chance(rate);
    }

    FaultConfig cfg;
    Random rng;
    bool armed;
};

} // namespace check
} // namespace cwsim

#endif // CWSIM_CHECK_FAULT_INJECTOR_HH
