#include "sim/config.hh"

#include <sstream>

#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{

const char *
toString(LsqModel model)
{
    switch (model) {
      case LsqModel::NAS: return "NAS";
      case LsqModel::AS: return "AS";
    }
    panic("bad LsqModel");
}

const char *
toString(SpecPolicy policy)
{
    switch (policy) {
      case SpecPolicy::No: return "NO";
      case SpecPolicy::Naive: return "NAV";
      case SpecPolicy::Selective: return "SEL";
      case SpecPolicy::StoreBarrier: return "STORE";
      case SpecPolicy::SpecSync: return "SYNC";
      case SpecPolicy::Oracle: return "ORACLE";
    }
    panic("bad SpecPolicy");
}

std::string
configName(LsqModel model, SpecPolicy policy)
{
    return std::string(toString(model)) + "/" + toString(policy);
}

SimConfig
makeW128Config()
{
    return SimConfig{};
}

SimConfig
makeW64Config()
{
    SimConfig cfg;
    cfg.core.windowSize = 64;
    cfg.core.lsqSize = 64;
    cfg.core.storeBufferSize = 64;
    cfg.core.issueWidth = 4;
    cfg.core.commitWidth = 4;
    cfg.core.memPorts = 2;
    cfg.core.fuCopies = 2;
    return cfg;
}

SimConfig
makeWindowConfig(unsigned window_size)
{
    fatal_if(window_size == 0, "window size must be positive");
    SimConfig cfg;
    cfg.core.windowSize = window_size;
    cfg.core.lsqSize = window_size;
    cfg.core.storeBufferSize = window_size;
    return cfg;
}

SimConfig
withPolicy(SimConfig cfg, LsqModel model, SpecPolicy policy,
           Cycles as_latency)
{
    cfg.mdp.lsqModel = model;
    cfg.mdp.policy = policy;
    cfg.mdp.asLatency = as_latency;
    fatal_if(model == LsqModel::NAS && as_latency != 0,
             "address-scheduler latency is meaningless without AS");
    return cfg;
}

namespace
{

void
serializeCache(std::ostringstream &os, const char *prefix,
               const CacheConfig &c)
{
    os << prefix << ".sizeBytes=" << c.sizeBytes << '\n'
       << prefix << ".assoc=" << c.assoc << '\n'
       << prefix << ".banks=" << c.banks << '\n'
       << prefix << ".blockSize=" << c.blockSize << '\n'
       << prefix << ".hitLatency=" << c.hitLatency << '\n'
       << prefix << ".primaryMshrsPerBank=" << c.primaryMshrsPerBank
       << '\n'
       << prefix << ".secondaryPerPrimary=" << c.secondaryPerPrimary
       << '\n';
}

/** %.17g survives a double's round trip through text unchanged. */
std::string
f64(double v)
{
    return strfmt("%.17g", v);
}

} // anonymous namespace

std::string
serializeConfig(const SimConfig &cfg)
{
    std::ostringstream os;

    const CoreConfig &core = cfg.core;
    os << "core.fetchWidth=" << core.fetchWidth << '\n'
       << "core.fetchMaxBlocks=" << core.fetchMaxBlocks << '\n'
       << "core.maxFetchRequests=" << core.maxFetchRequests << '\n'
       << "core.fetchToDispatch=" << core.fetchToDispatch << '\n'
       << "core.windowSize=" << core.windowSize << '\n'
       << "core.lsqSize=" << core.lsqSize << '\n'
       << "core.storeBufferSize=" << core.storeBufferSize << '\n'
       << "core.issueWidth=" << core.issueWidth << '\n'
       << "core.commitWidth=" << core.commitWidth << '\n'
       << "core.memPorts=" << core.memPorts << '\n'
       << "core.fuCopies=" << core.fuCopies << '\n'
       << "core.lsqInputPorts=" << core.lsqInputPorts << '\n';

    serializeCache(os, "mem.icache", cfg.mem.icache);
    serializeCache(os, "mem.dcache", cfg.mem.dcache);
    serializeCache(os, "mem.l2", cfg.mem.l2);
    os << "mem.l2AccessLatency=" << cfg.mem.l2AccessLatency << '\n'
       << "mem.memAccessLatency=" << cfg.mem.memAccessLatency << '\n'
       << "mem.memBaseLatency=" << cfg.mem.memBaseLatency << '\n'
       << "mem.memTransferPer4Words=" << cfg.mem.memTransferPer4Words
       << '\n'
       << "mem.l2TransferPer4Words=" << cfg.mem.l2TransferPer4Words
       << '\n';

    const BPredConfig &bp = cfg.bpred;
    os << "bpred.predictorEntries=" << bp.predictorEntries << '\n'
       << "bpred.gselectHistoryBits=" << bp.gselectHistoryBits << '\n'
       << "bpred.btbEntries=" << bp.btbEntries << '\n'
       << "bpred.rasEntries=" << bp.rasEntries << '\n'
       << "bpred.predictionsPerCycle=" << bp.predictionsPerCycle
       << '\n'
       << "bpred.resolutionsPerCycle=" << bp.resolutionsPerCycle
       << '\n';

    const MdpConfig &mdp = cfg.mdp;
    os << "mdp.lsqModel=" << toString(mdp.lsqModel) << '\n'
       << "mdp.policy=" << toString(mdp.policy) << '\n'
       << "mdp.asLatency=" << mdp.asLatency << '\n'
       << "mdp.mdptEntries=" << mdp.mdptEntries << '\n'
       << "mdp.mdptAssoc=" << mdp.mdptAssoc << '\n'
       << "mdp.counterBits=" << mdp.counterBits << '\n'
       << "mdp.predictThreshold=" << mdp.predictThreshold << '\n'
       << "mdp.resetInterval=" << mdp.resetInterval << '\n'
       << "mdp.recovery="
       << (mdp.recovery == RecoveryModel::Squash ? "squash"
                                                 : "selective")
       << '\n';

    const CheckConfig &check = cfg.check;
    os << "check.level=" << check.level << '\n'
       << "check.watchdogInterval=" << check.watchdogInterval << '\n'
       << "check.flightRecorderSize=" << check.flightRecorderSize
       << '\n';

    const FaultConfig &faults = check.faults;
    os << "check.faults.seed=" << faults.seed << '\n'
       << "check.faults.spuriousViolationRate="
       << f64(faults.spuriousViolationRate) << '\n'
       << "check.faults.storeAddrDelayRate="
       << f64(faults.storeAddrDelayRate) << '\n'
       << "check.faults.storeAddrDelay=" << faults.storeAddrDelay
       << '\n'
       << "check.faults.mdptDropRate=" << f64(faults.mdptDropRate)
       << '\n'
       << "check.faults.mdptCorruptRate="
       << f64(faults.mdptCorruptRate) << '\n';

    os << "maxInsts=" << cfg.maxInsts << '\n'
       << "maxCycles=" << cfg.maxCycles << '\n';

    return os.str();
}

} // namespace cwsim
