#include "system/campaign.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/campaign_engine.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "system/assembler.hh"
#include "util/json.hh"

namespace scal::system
{

using namespace netlist;

const char *
systemOutcomeName(SystemOutcome o)
{
    switch (o) {
      case SystemOutcome::Masked:           return "masked";
      case SystemOutcome::Detected:         return "detected";
      case SystemOutcome::SilentCorruption: return "SILENT";
    }
    return "?";
}

std::vector<Workload>
standardWorkloads()
{
    std::vector<Workload> wls;

    {
        Workload wl;
        wl.name = "sum8";
        wl.prog = assemble(R"(
            LDA 32
            ADD 33
            ADD 34
            ADD 35
            ADD 36
            ADD 37
            ADD 38
            ADD 39
            OUT
            HALT
        )");
        for (int i = 0; i < 8; ++i)
            wl.data.push_back({static_cast<std::uint8_t>(32 + i),
                               static_cast<std::uint8_t>(17 * i + 3)});
        wls.push_back(wl);
    }
    {
        Workload wl;
        wl.name = "fib12";
        // Cells: 0 = a, 1 = b, 2 = t, 10 = counter, 11 = constant 1.
        wl.prog = assemble(R"(
            LDI 0
            STA 0
            LDI 1
            STA 1
            LDI 12
            STA 10
        loop:
            LDA 0
            ADD 1
            STA 2
            OUT
            LDA 1
            STA 0
            LDA 2
            STA 1
            LDA 10
            SUB 11
            STA 10
            JNZ loop
            HALT
        )");
        wl.data.push_back({11, 1});
        wls.push_back(wl);
    }
    {
        Workload wl;
        wl.name = "mul5";
        // 5x = (x << 2) + x.
        wl.prog = assemble(R"(
            LDA 20
            SHL
            SHL
            ADD 20
            OUT
            HALT
        )");
        wl.data.push_back({20, 37});
        wls.push_back(wl);
    }
    {
        Workload wl;
        wl.name = "logicmix";
        wl.prog = assemble(R"(
            LDA 40
            AND 41
            OR 42
            XOR 43
            SHR
            XOR 44
            OUT
            HALT
        )");
        for (int i = 0; i < 5; ++i)
            wl.data.push_back({static_cast<std::uint8_t>(40 + i),
                               static_cast<std::uint8_t>(0x5a ^ (i * 29))});
        wls.push_back(wl);
    }
    {
        Workload wl;
        wl.name = "copycheck";
        wl.prog = assemble(R"(
            LDA 50
            STA 60
            LDA 51
            STA 61
            LDA 52
            STA 62
            LDA 53
            STA 63
            LDA 60
            XOR 61
            XOR 62
            XOR 63
            OUT
            HALT
        )");
        for (int i = 0; i < 4; ++i)
            wl.data.push_back({static_cast<std::uint8_t>(50 + i),
                               static_cast<std::uint8_t>(0xc3 - 7 * i)});
        wls.push_back(wl);
    }
    {
        Workload wl;
        wl.name = "arraysum";
        // A genuine pointer loop: sum eight bytes at 100..107.
        wl.prog = assemble(R"(
            LDI 100
            STA 15      ; ptr
            LDI 8
            STA 16      ; count
            LDI 0
            STA 17      ; sum
        loop:
            LDP 15
            ADD 17
            STA 17
            LDA 15
            ADDI 1
            STA 15
            LDA 16
            SUB 11
            STA 16
            JNZ loop
            LDA 17
            OUT
            HALT
        )");
        wl.data.push_back({11, 1});
        for (int i = 0; i < 8; ++i)
            wl.data.push_back({static_cast<std::uint8_t>(100 + i),
                               static_cast<std::uint8_t>(31 * i + 7)});
        wls.push_back(wl);
    }
    return wls;
}

Workload
findWorkload(const std::string &name)
{
    std::string known;
    for (Workload &wl : standardWorkloads()) {
        if (wl.name == name)
            return std::move(wl);
        known += (known.empty() ? "" : ", ") + wl.name;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: " + known + ")");
}

std::vector<std::uint8_t>
goldenOutput(const Workload &wl)
{
    ReferenceCpu cpu(wl.prog);
    for (auto [addr, value] : wl.data)
        cpu.poke(addr, value);
    return cpu.run(wl.maxSteps).output;
}

namespace
{

bool
isPrefixOf(const std::vector<std::uint8_t> &prefix,
           const std::vector<std::uint8_t> &full)
{
    if (prefix.size() > full.size())
        return false;
    for (std::size_t i = 0; i < prefix.size(); ++i)
        if (prefix[i] != full[i])
            return false;
    return true;
}

/**
 * The unprotected CPU: same program semantics, but ALU results come
 * from a single-period evaluation of the conventional gate-level
 * datapath, with no checking of any kind.
 */
class UncheckedCpu
{
  public:
    UncheckedCpu(Program prog, AluOp faulty_op, const Fault &fault)
        : cpu_(std::move(prog)), faultyOp_(faulty_op),
          net_(aluNetlistUnchecked(faulty_op)),
          flat_(std::make_unique<sim::FlatNetlist>(net_)),
          // One scalar (a, b) pair broadcast across a single word per
          // corruptor call: wider lane blocks would only replicate the
          // same pattern, so this stays at lane_words == 1 while the
          // pattern-parallel campaigns (fault/campaign.cc) widen.
          fs_(std::make_unique<sim::FaultSimulator>(
              *flat_, /*lane_words=*/1)),
          fault_(fault), inw_(net_.numInputs(), 0)
    {
        cpu_.setCorruptor([this](AluOp op, std::uint8_t a,
                                 std::uint8_t b, AluResult good) {
            if (op != faultyOp_)
                return good;
            // Broadcast each scalar bit across the word; the faulty
            // evaluation then only resimulates the fault's cone on
            // each of the thousands of corruptor calls a run makes.
            for (auto &w : inw_)
                w = 0;
            const std::uint64_t ones = ~std::uint64_t{0};
            for (int i = 0; i < 8 && i < static_cast<int>(inw_.size());
                 ++i) {
                inw_[i] = (a >> i) & 1 ? ones : 0;
                if (8 + i < static_cast<int>(inw_.size()))
                    inw_[8 + i] = (b >> i) & 1 ? ones : 0;
            }
            fs_->setBaseline(inw_);
            const auto &outs = fs_->faultOutputs(fault_);
            AluResult res;
            for (int i = 0; i < 8; ++i)
                if (outs[i] & 1)
                    res.value |= static_cast<std::uint8_t>(1u << i);
            res.carry = outs[8] & 1;
            res.zero = outs[9] & 1;
            return res;
        });
    }

    ReferenceCpu &cpu() { return cpu_; }

  private:
    ReferenceCpu cpu_;
    AluOp faultyOp_;
    Netlist net_;
    std::unique_ptr<sim::FlatNetlist> flat_;
    std::unique_ptr<sim::FaultSimulator> fs_;
    Fault fault_;
    std::vector<std::uint64_t> inw_;
};

/** One fault's end-to-end verdict plus its detection latency. */
struct PerFault
{
    SystemOutcome outcome = SystemOutcome::Masked;
    long detectStep = 0;
    bool countsDetectStep = false;
};

/** One SCAL-CPU fault run — an independent CPU instance per call, so
 *  the classification is a pure function of (workload, op, fault). */
PerFault
classifyScalFault(const Workload &wl, AluOp op,
                  const std::vector<std::uint8_t> &golden,
                  const Fault &fault)
{
    ScalCpu cpu(wl.prog);
    for (auto [addr, value] : wl.data)
        cpu.poke(addr, value);
    cpu.injectAluFault(op, fault);
    const ScalRunResult run = cpu.run(wl.maxSteps);

    PerFault pf;
    if (run.errorDetected) {
        pf.outcome = isPrefixOf(run.output, golden)
                         ? SystemOutcome::Detected
                         : SystemOutcome::SilentCorruption;
        pf.detectStep = run.detectStep;
        pf.countsDetectStep = true;
    } else if (run.halted && run.output == golden) {
        pf.outcome = SystemOutcome::Masked;
    } else {
        pf.outcome = SystemOutcome::SilentCorruption;
    }
    return pf;
}

/** Unprotected-CPU counterpart of classifyScalFault. */
PerFault
classifyUncheckedFault(const Workload &wl, AluOp op,
                       const std::vector<std::uint8_t> &golden,
                       const Fault &fault)
{
    UncheckedCpu wrapper(wl.prog, op, fault);
    for (auto [addr, value] : wl.data)
        wrapper.cpu().poke(addr, value);
    const RunResult run = wrapper.cpu().run(wl.maxSteps);

    PerFault pf;
    pf.outcome = (run.halted && run.output == golden)
                     ? SystemOutcome::Masked
                     : SystemOutcome::SilentCorruption;
    return pf;
}

/** The ALU datapath whose faults a campaign injects. */
Netlist
campaignAlu(AluOp op, bool checked)
{
    return checked ? aluNetlist(op) : aluNetlistUnchecked(op);
}

/**
 * Classify faults[begin, end), one independent CPU instance per fault:
 * the SCAL CPU when @p checked, else the unprotected one.
 */
std::vector<PerFault>
classifyRange(const Workload &wl, AluOp op, bool checked,
              const std::vector<std::uint8_t> &golden,
              const std::vector<Fault> &faults, std::size_t begin,
              std::size_t end, const engine::CancelToken *cancel,
              engine::ProgressTracker &progress)
{
    std::vector<PerFault> out(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
        if (cancel && cancel->stopRequested())
            throw engine::CampaignCancelled();
        out[k - begin] =
            checked ? classifyScalFault(wl, op, golden, faults[k])
                    : classifyUncheckedFault(wl, op, golden, faults[k]);
        progress.addFaultsDone(1);
    }
    return out;
}

/** One fault is one program run: chunks may hold a single fault. */
engine::EngineOptions
engineOptions(const SystemCampaignOptions &opts)
{
    engine::EngineOptions eopts;
    eopts.jobs = opts.jobs;
    eopts.minGrain = 1;
    return eopts;
}

/**
 * The one fold of per-fault verdicts into a result (fault order,
 * double accumulation), shared by the inline run and the merge, so
 * both are field-identical. The unprotected CPU never reports
 * Detected, so its counts need no fold of their own.
 */
SystemCampaignResult
foldResult(const Netlist &alu, const std::vector<Fault> &faults,
           const std::vector<PerFault> &per)
{
    SystemCampaignResult res;
    double detect_steps = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
        const PerFault &pf = per[k];
        if (pf.countsDetectStep)
            detect_steps += static_cast<double>(pf.detectStep);
        ++res.total;
        switch (pf.outcome) {
          case SystemOutcome::Masked:
            ++res.masked;
            break;
          case SystemOutcome::Detected:
            ++res.detected;
            break;
          case SystemOutcome::SilentCorruption:
            ++res.silent;
            res.silentFaults.push_back(faultToString(alu, faults[k]));
            break;
        }
    }
    if (res.detected)
        res.meanDetectStep = detect_steps / res.detected;
    return res;
}

/** One fault's record in a "system" snapshot payload, which is a
 *  u8 checked flag, a u64 record count, then the records. */
void
encodeSystemRecord(engine::ByteWriter &w, std::uint32_t faultIndex,
                   const PerFault &pf)
{
    w.u32(faultIndex);
    w.u8(static_cast<std::uint8_t>(pf.outcome));
    w.u8(pf.countsDetectStep ? 1 : 0);
    w.i64(pf.detectStep);
}

void
decodeSystemPayload(const std::vector<std::uint8_t> &bytes,
                    const std::string &name, bool *checked,
                    std::vector<std::uint32_t> *idx,
                    std::vector<PerFault> *per)
{
    engine::ByteReader r(bytes);
    *checked = r.u8() != 0;
    const std::uint64_t n = r.u64();
    idx->clear();
    per->clear();
    idx->reserve(n);
    per->reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        idx->push_back(r.u32());
        PerFault pf;
        const std::uint8_t o = r.u8();
        if (o > 2)
            throw engine::SnapshotError(
                name + ": invalid system outcome code " +
                std::to_string(o));
        pf.outcome = static_cast<SystemOutcome>(o);
        pf.countsDetectStep = r.u8() != 0;
        pf.detectStep = r.i64();
        per->push_back(pf);
    }
    if (!r.atEnd())
        throw engine::SnapshotError(
            name + ": trailing bytes after system payload");
}

} // namespace

SystemCampaignResult
runSystemCampaign(const Workload &wl, AluOp op, bool checked,
                  const SystemCampaignOptions &opts)
{
    const auto golden = goldenOutput(wl);
    const Netlist alu = campaignAlu(op, checked);
    const std::vector<Fault> faults = alu.allFaults();

    // Per-chunk results concatenate back in fault-list order, so the
    // fold sees the same sequence at any jobs count.
    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(faults.size());
    const auto chunks = eng.mapChunks<std::vector<PerFault>>(
        faults.size(), [&](engine::Chunk c, std::size_t) {
            return classifyRange(wl, op, checked, golden, faults, c.begin,
                                 c.end, opts.cancel, eng.progress());
        });
    std::vector<PerFault> per;
    per.reserve(faults.size());
    for (const auto &chunk : chunks)
        per.insert(per.end(), chunk.begin(), chunk.end());
    return foldResult(alu, faults, per);
}

fault::ShardOutcome
runSystemCampaignShard(const Workload &wl, AluOp op, bool checked,
                       const SystemCampaignOptions &opts,
                       const engine::ShardSpec &shard,
                       const fault::CheckpointOptions &ckpt)
{
    const auto golden = goldenOutput(wl);
    const Netlist alu = campaignAlu(op, checked);
    const std::vector<Fault> faults = alu.allFaults();
    const engine::Chunk slice =
        engine::shardSlice(faults.size(), shard);

    fault::ShardOutcome out;
    out.units = slice.size();
    out.shardClasses = static_cast<int>(slice.size());

    // The run's identity: what a resume snapshot must match, and the
    // header every snapshot of this run carries.
    engine::SnapshotHeader id;
    id.kind = "system";
    id.netHash = netlist::contentHash(alu);
    id.configKey = canonicalSystemConfig(wl.name, op, checked);
    id.shapeKey = "system"; // no work-shape knobs
    id.shard = shard;
    id.units = out.units;

    // Per-fault records, each encoded once when its chunk commits.
    engine::ByteWriter records;
    std::uint64_t numRecords = 0;

    if (ckpt.resume) {
        std::vector<std::uint8_t> payload;
        out.resumedUnits = engine::decodeResumeSnapshot(
            *ckpt.resume, id, &payload, ckpt.resumeName).cursor;
        bool snapChecked = false;
        std::vector<std::uint32_t> recIdx;
        std::vector<PerFault> recPer;
        decodeSystemPayload(payload, ckpt.resumeName, &snapChecked,
                            &recIdx, &recPer);
        if (snapChecked != checked)
            throw engine::SnapshotError(
                ckpt.resumeName +
                ": snapshot is for the other CPU configuration");
        for (std::size_t r = 0; r < recIdx.size(); ++r)
            encodeSystemRecord(records, recIdx[r], recPer[r]);
        numRecords = recIdx.size();
    }

    engine::CampaignEngine eng(engineOptions(opts));
    eng.beginCampaign(out.units);
    // Unit = one fault, one class.
    fault::runCheckpointedShard(
        eng, ckpt, opts.cancel, id,
        std::vector<std::uint64_t>(out.units, 1),
        [&](engine::Chunk c) -> std::function<void()> {
            const std::size_t f0 = slice.begin + c.begin;
            return [&, f0,
                    per = classifyRange(wl, op, checked, golden, faults, f0,
                                        slice.begin + c.end, opts.cancel,
                                        eng.progress())] {
                for (std::size_t i = 0; i < per.size(); ++i)
                    encodeSystemRecord(
                        records, static_cast<std::uint32_t>(f0 + i), per[i]);
                numRecords += per.size();
            };
        },
        records,
        [&](engine::ByteWriter &w) {
            w.u8(checked ? 1 : 0);
            w.u64(numRecords);
        },
        out);

    out.shardFaults = static_cast<int>(numRecords);
    out.stats = eng.endCampaign(out.units, out.units, 0);
    return out;
}

SystemCampaignResult
mergeSystemPartials(AluOp op, bool checked,
                    const std::vector<std::vector<std::uint8_t>> &partials,
                    const std::vector<std::string> &names)
{
    const Netlist alu = campaignAlu(op, checked);
    const std::vector<Fault> faults = alu.allFaults();
    const engine::PartialSet set = engine::decodePartialSet(
        "system", netlist::contentHash(alu), partials, names);

    std::vector<PerFault> per(faults.size());
    engine::FaultCoverage coverage(faults.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string &name = set.names[i];
        bool snapChecked = false;
        std::vector<std::uint32_t> recIdx;
        std::vector<PerFault> recPer;
        decodeSystemPayload(set.payloads[i], name, &snapChecked, &recIdx,
                            &recPer);
        if (snapChecked != checked)
            throw engine::SnapshotError(
                name + ": snapshot is for the other CPU configuration");
        for (std::size_t r = 0; r < recIdx.size(); ++r) {
            coverage.cover(recIdx[r], name);
            per[recIdx[r]] = recPer[r];
        }
    }
    coverage.requireAll();
    return foldResult(alu, faults, per);
}

std::string
canonicalSystemConfig(const std::string &workload, AluOp op,
                      bool checked)
{
    std::ostringstream os;
    os << "system;workload=" << workload << ";op=" << aluOpName(op)
       << ";checked=" << (checked ? 1 : 0);
    return os.str();
}

std::string
systemResultJson(const SystemCampaignResult &res)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"total\": " << res.total << ",\n"
       << "  \"masked\": " << res.masked << ",\n"
       << "  \"detected\": " << res.detected << ",\n"
       << "  \"silent\": " << res.silent << ",\n"
       << "  \"mean_detect_step\": " << res.meanDetectStep << ",\n"
       << "  \"silent_faults\": [";
    for (std::size_t i = 0; i < res.silentFaults.size(); ++i)
        os << (i ? ", " : "") << "\""
           << util::jsonEscape(res.silentFaults[i]) << "\"";
    os << "]\n"
       << "}\n";
    return os.str();
}

} // namespace scal::system
