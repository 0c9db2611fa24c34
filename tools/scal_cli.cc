/**
 * @file
 * scal_cli — command-line front end to the SCAL library.
 *
 *   scal_cli import   <circuit|->        parse ISCAS .bench / BLIF /
 *                     [--format F]       structural Verilog / native
 *                     [--json]           netlist, emit native netlist
 *                                        text on stdout (--json: the
 *                                        shared stats summary)
 *   scal_cli report   <circuit|->        structural census: drivers,
 *                     [--json]           fanout histogram, logic
 *                     [--harden-diff]    depth, gate counts, comb
 *                                        loops (--harden-diff: the
 *                                        original-vs-hardened overhead
 *                                        comparison)
 *   scal_cli paths    <circuit|->        structural paths between two
 *                     [--from NET]       named nets (default: first
 *                     [--to NET]         input to first output);
 *                     [--all] [--max N]  --all enumerates simple
 *                                        paths; exit 2 = no path
 *   scal_cli harden   <circuit|->        SCAL-harden: self-dualize
 *                     [--verify] [--json] every output and map flip-
 *                     [--budget N]       flops onto dual pairs; emits
 *                                        the alternating netlist on
 *                                        stdout, overhead report on
 *                                        stderr
 *   scal_cli analyze  <netlist|->        Algorithm 3.1 line report
 *   scal_cli campaign <netlist|-> [--jobs N] [--json] [--verbose]
 *                     [--seed N] [--max-patterns N] [--progress]
 *                     [--lanes 64|256|512] [--simd portable|avx2|avx512]
 *                                        exhaustive stuck-at campaign
 *   scal_cli seq-campaign <netlist|-> [--symbols N] [--lanes N]
 *                     [--seed N] [--jobs N] [--window S:E] [--no-drop]
 *                     [--phi NAME | --phi-index I] [--data I,J,..]
 *                     [--alt I,J,..] [--code-pairs P,Q,..] [--hold I,J,..]
 *                     [--simd portable|avx2|avx512] [--[no-]seq-dominance]
 *                     [--json] [--progress]
 *                                        sequential alternating campaign
 *
 * Both campaigns run the width-generic SIMD kernels (sim/wide.hh):
 * --lanes picks patterns/streams per packed replay (0 = widest the
 * resolved target supports), --simd pins the kernel build (default
 * auto: the SCAL_SIMD env var, else the widest the CPU supports).
 * The combinational campaign always runs the fault-parallel pipeline
 * (FFR flip batching, critical-path tracing, dominance pruning). The
 * sequential campaign gives each fault one lane group of a 512-lane
 * replay batch (8, 2 or 1 faults per pass at up to --lanes 64, 256
 * or 512); its one work-saving knob, --seq-dominance,
 * forces sequential constant propagation and time-frame Dff
 * equivalences into collapsing, even on hardened realizations where
 * the campaign skips them by default. Verdicts are bit-identical
 * across simd, jobs and that flag, and across --lanes for the
 * combinational campaign (sequential --lanes sets the number of
 * random streams). A --window that misses the stream's 2 * symbols
 * periods is an error. The campaign options are the
 * rows of the option tables in fault/options.hh, which the daemon
 * protocol and the shard workers share; every bool --name has a
 * --no-name twin.
 *   scal_cli tests    <netlist|-> <line> Theorem 3.2 test derivation
 *   scal_cli repair   <netlist|-> <line> [depth]   Figure 3.7 repair
 *   scal_cli convert-minority <netlist|->          Theorem 6.2
 *   scal_cli dot      <netlist|->        Graphviz export
 *                     [--name G] [--cone OUT] [--path FROM:TO]
 *                     [--fault-sites]    (--cone/--path highlight the
 *                                        named cone or path, --fault-
 *                                        sites overlays site tallies)
 *   scal_cli selftest                    quick built-in sanity check
 *
 * Sharded & resumable campaigns: campaign and seq-campaign accept
 *
 *   --shard K/N            simulate only shard K of an N-way split of
 *                          the collapsed fault classes (requires
 *                          --partial; exit 0 = partial produced, the
 *                          verdict is judged at merge)
 *   --partial FILE         write the shard's partial result snapshot
 *   --checkpoint FILE      checkpoint snapshot path (default
 *                          <partial>.ckpt when --checkpoint-every set)
 *   --checkpoint-every N   checkpoint every ~N fault classes (a
 *                          negative N picks an automatic cadence of
 *                          about 16 snapshots per shard); SIGINT/
 *                          SIGTERM also write a final checkpoint and
 *                          print the resume command to stderr
 *   --resume FILE          continue an interrupted run from FILE
 *   --verdict-only         print only the deterministic verdict JSON
 *                          (the byte-identity comparison format)
 *
 *   scal_cli merge <circuit|-> FILE...   merge complete partials into
 *                          the verdict, byte-identical to the
 *                          single-process run (system partials need
 *                          no circuit: every positional is a FILE)
 *   scal_cli shard-run <circuit|-> --shards N [--kind comb|seq]
 *                          [--workdir DIR] [--checkpoint-every N]
 *                          [--max-restarts N] [campaign flags...]
 *                          fork one worker per shard, restart killed
 *                          workers from their checkpoints, auto-merge
 *
 * Every command that reads a netlist accepts external circuits: the
 * positional path (or --circuit FILE) may be a native netlist, an
 * ISCAS-85/89 .bench file, a structural BLIF file, or a structural
 * gate-level Verilog file — the format is picked by extension,
 * overridable with --format {bench,blif,scal,verilog};
 * "-" reads stdin (sniffed). Adding --harden runs the SCAL-hardening
 * pass on the imported circuit before the command sees it, so e.g.
 *
 *   scal_cli campaign --circuit circuits/c432.bench --harden --jobs 8
 *
 * campaigns the alternating realization of c432.
 *
 * With --server SOCKET, campaign and seq-campaign submit to a running
 * scal_serverd instead of simulating inline (--client NAME and
 * --priority N feed its fair-share scheduler; --progress streams the
 * daemon's progress events to stderr) and print the same JSON the
 * inline --json path produces. `import --json` emits a machine
 * summary including content_hash, the daemon's cache address for the
 * circuit.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/cycle_detector.hh"
#include "analysis/harden_diff.hh"
#include "analysis/path_finder.hh"
#include "analysis/report.hh"
#include "core/algorithm31.hh"
#include "engine/cancel.hh"
#include "engine/checkpoint.hh"
#include "engine/orchestrator.hh"
#include "engine/shard.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "core/repair.hh"
#include "core/test_derivation.hh"
#include "fault/campaign.hh"
#include "fault/collapse.hh"
#include "fault/options.hh"
#include "fault/report.hh"
#include "fault/seq_campaign.hh"
#include "fault/shard.hh"
#include "minority/convert.hh"
#include "netlist/circuits.hh"
#include "netlist/dot.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "sim/simd.hh"
#include "system/alu.hh"
#include "system/campaign.hh"
#include "util/number.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

/**
 * Arguments shared by every command: where the circuit comes from,
 * what format it is in, and whether to SCAL-harden it before the
 * command runs. Extracted up front so the per-command flag parsers
 * stay strict about what they accept.
 */
struct CommonArgs
{
    std::string cmd;
    std::string path;
    ingest::Format format = ingest::Format::Auto;
    bool harden = false;
    std::string server;  ///< daemon socket: submit instead of running
    std::string client = "scal_cli"; ///< fair-share identity
    int priority = 0;
    std::vector<std::string> rest; ///< untouched per-command args
};

/** Cooperative Ctrl-C: the campaign kernels poll this token. */
engine::CancelToken g_cancel;

void
onInterrupt(int)
{
    g_cancel.requestStop(); // async-signal-safe: one relaxed store
}

/** The invocation minus any --resume pair, for the "resume with:"
 *  hint an interrupted checkpointable run prints. */
std::string g_resumeCommand;

/** Shard / checkpoint / resume arguments shared by campaign and
 *  seq-campaign (parsed alongside their normal flags). */
struct ShardArgs
{
    engine::ShardSpec shard;
    std::string partialPath;
    std::string checkpointPath;
    int checkpointEvery = 0;
    std::string resumePath;
    bool verdictOnly = false;

    /** True when the run must go through the shard runner (verdict
     *  printing alone does not). */
    bool enabled() const
    {
        return shard.active() || !partialPath.empty() ||
               !checkpointPath.empty() || checkpointEvery != 0 ||
               !resumePath.empty();
    }

    /** Where checkpoints land: --checkpoint, else the resume source,
     *  else next to the partial once a cadence asks for them. */
    std::string effectiveCheckpointPath() const
    {
        if (!checkpointPath.empty())
            return checkpointPath;
        if (!resumePath.empty())
            return resumePath;
        if (!partialPath.empty() && checkpointEvery != 0)
            return partialPath + ".ckpt";
        return {};
    }
};

/**
 * Checkpoint plumbing for one shard-mode run: resume bytes from
 * --resume, a sink routing non-final snapshots to the checkpoint path
 * and the final one to the partial path. Keeps the resume byte buffer
 * alive for the runner's whole lifetime.
 */
struct ShardSession
{
    fault::CheckpointOptions ckpt;
    std::string checkpointFile;
    std::vector<std::uint8_t> resumeBytes;

    explicit ShardSession(const ShardArgs &sh)
        : checkpointFile(sh.effectiveCheckpointPath())
    {
        if (sh.shard.active() && sh.partialPath.empty())
            throw std::runtime_error(
                "--shard needs --partial FILE (the merge input)");
        ckpt.every = sh.checkpointEvery;
        if (!sh.resumePath.empty()) {
            resumeBytes = engine::readSnapshotFile(sh.resumePath);
            ckpt.resume = &resumeBytes;
            ckpt.resumeName = sh.resumePath;
        }
        const std::string partial = sh.partialPath;
        const std::string ckptPath = checkpointFile;
        ckpt.sink = [partial, ckptPath](
                        const std::vector<std::uint8_t> &bytes,
                        bool final) {
            if (final) {
                if (!partial.empty())
                    engine::writeSnapshotFile(partial, bytes);
            } else if (!ckptPath.empty()) {
                engine::writeSnapshotFile(ckptPath, bytes);
            }
        };
    }

    /** A finished run's checkpoint is stale: drop it. */
    void dropCheckpoint() const
    {
        if (!checkpointFile.empty())
            std::remove(checkpointFile.c_str());
    }

    /** The satellite-b stderr hint after SIGINT/SIGTERM. */
    void printResumeHint() const
    {
        if (checkpointFile.empty() ||
            !std::filesystem::exists(checkpointFile))
            return;
        std::cerr << "interrupted; checkpoint written to "
                  << checkpointFile << "\n"
                  << "resume with: " << g_resumeCommand << " --resume "
                  << checkpointFile << "\n";
    }
};

CommonArgs
parseCommonArgs(int argc, char **argv)
{
    CommonArgs common;
    common.cmd = argc > 1 ? argv[1] : "";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *name) {
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return std::string(argv[++i]);
        };
        if (arg == "--circuit") {
            common.path = value("--circuit");
        } else if (arg == "--server") {
            common.server = value("--server");
        } else if (arg == "--client") {
            common.client = value("--client");
        } else if (arg == "--priority") {
            common.priority =
                util::checkedNumber<int>("--priority", value("--priority"));
        } else if (arg == "--format") {
            const std::string v = value("--format");
            if (!ingest::parseFormatName(v, &common.format))
                throw std::runtime_error(
                    "--format needs auto|bench|blif|scal|verilog, "
                    "got '" +
                    v + "'");
        } else if (arg == "--harden") {
            common.harden = true;
        } else if (i == 2 && (arg == "-" || arg[0] != '-')) {
            common.path = arg; // classic positional netlist path
        } else {
            common.rest.push_back(arg);
        }
    }
    return common;
}

Netlist
load(const CommonArgs &common)
{
    if (common.path.empty())
        throw std::runtime_error(
            "no circuit given: pass a path or --circuit FILE");
    ingest::ImportedCircuit circ =
        ingest::importCircuit(common.path, common.format);
    if (!common.harden)
        return std::move(circ.net);
    return ingest::hardenNetlist(circ.net).net;
}

int
cmdImport(const CommonArgs &common)
{
    bool json = false;
    for (const std::string &arg : common.rest) {
        if (arg == "--json")
            json = true;
        else
            throw std::runtime_error("unknown import flag " + arg);
    }
    const ingest::ImportedCircuit circ =
        ingest::importCircuit(common.path, common.format);
    if (json) {
        // Machine summary instead of netlist text, via the stats
        // encoder `report --json` shares; content_hash is
        // netlist::contentHash of the canonical serialize bytes, the
        // daemon's cache address for this circuit.
        std::cout << analysis::statsJson(
            analysis::computeStats(circ.net), circ.name,
            ingest::formatName(circ.format));
        return 0;
    }
    std::cerr << "imported " << circ.name << " ("
              << ingest::formatName(circ.format) << "): "
              << circ.net.numInputs() << " inputs, "
              << circ.net.numOutputs() << " outputs, "
              << circ.net.flipFlops().size() << " flip-flops, "
              << circ.net.cost().gates << " gates, depth "
              << logicDepth(circ.net) << "\n";
    writeNetlist(std::cout, circ.net);
    return 0;
}

int
cmdReport(const CommonArgs &common)
{
    bool json = false, hardenDiff = false;
    for (const std::string &arg : common.rest) {
        if (arg == "--json")
            json = true;
        else if (arg == "--harden-diff")
            hardenDiff = true;
        else
            throw std::runtime_error("unknown report flag " + arg);
    }
    const ingest::ImportedCircuit circ =
        ingest::importCircuit(common.path, common.format);
    if (hardenDiff) {
        // Original vs its hardened realization, regardless of
        // --harden (the diff needs both sides anyway).
        const ingest::HardenedCircuit hard =
            ingest::hardenNetlist(circ.net);
        const analysis::HardenDiff diff =
            analysis::diffHardened(circ.net, hard.net, hard.phiInput);
        if (json) {
            std::cout << diff.toJson();
        } else {
            std::cout << "muxes " << diff.muxCount
                      << ", dual-only gates " << diff.dualOnlyGates
                      << ", shared gates " << diff.sharedGates
                      << ", dual-cone share " << diff.dualConeShare
                      << "\ngates " << diff.gatesBefore << " -> "
                      << diff.gatesAfter << ", depth "
                      << diff.depthBefore << " -> " << diff.depthAfter
                      << "\n";
            for (const auto &od : diff.outputDepths)
                std::cout << "  " << od.name << ": depth " << od.before
                          << " -> " << od.after << "\n";
        }
        return 0;
    }
    const Netlist net =
        common.harden ? ingest::hardenNetlist(circ.net).net : circ.net;
    const analysis::NetlistStats stats = analysis::computeStats(net);
    if (json)
        std::cout << analysis::statsJson(
            stats, circ.name, ingest::formatName(circ.format));
    else
        analysis::printReport(std::cout, net, stats);
    return 0;
}

/** Resolve --from/--to names, defaulting to the first input and the
 *  first output so smoke runs need no arguments. */
GateId
resolveEndpoint(const Netlist &net, const std::string &name,
                GateId fallback, const char *flag)
{
    if (name.empty()) {
        if (fallback == kNoGate)
            throw std::runtime_error(
                std::string("no default for ") + flag +
                ": the circuit has no inputs/outputs");
        return fallback;
    }
    const GateId id = analysis::findNet(net, name);
    if (id == kNoGate)
        throw std::runtime_error(std::string(flag) + ": no net named '" +
                                 name + "'");
    return id;
}

int
cmdPaths(const Netlist &net, const std::vector<std::string> &args)
{
    std::string from, to;
    bool all = false;
    std::size_t maxPaths = 256;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto value = [&](const char *name) {
            if (++i >= args.size())
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return args[i];
        };
        if (arg == "--from")
            from = value("--from");
        else if (arg == "--to")
            to = value("--to");
        else if (arg == "--all")
            all = true;
        else if (arg == "--max")
            maxPaths =
                util::checkedNumber<std::size_t>("--max", value("--max"));
        else
            throw std::runtime_error("unknown paths flag " + arg);
    }
    const GateId src = resolveEndpoint(
        net, from, net.numInputs() ? net.inputs().front() : kNoGate,
        "--from");
    const GateId dst = resolveEndpoint(
        net, to, net.numOutputs() ? net.outputs().front() : kNoGate,
        "--to");

    const analysis::PathFinder finder(net);
    if (!all) {
        analysis::NetPath path;
        if (!finder.anyPath(src, dst, &path)) {
            std::cout << "no path from " << net.describe(src) << " to "
                      << net.describe(dst) << "\n";
            return 2;
        }
        std::cout << analysis::pathToString(net, path) << "\n";
        return 0;
    }
    bool truncated = false;
    const std::vector<analysis::NetPath> paths =
        finder.allPaths(src, dst, maxPaths, &truncated);
    for (const analysis::NetPath &p : paths)
        std::cout << analysis::pathToString(net, p) << "\n";
    std::cout << paths.size() << " path(s)"
              << (truncated ? " (truncated by --max)" : "") << "\n";
    return paths.empty() ? 2 : 0;
}

int
cmdDot(const Netlist &net, const std::vector<std::string> &args)
{
    DotOptions opts;
    std::string cone, pathSpec;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto value = [&](const char *name) {
            if (++i >= args.size())
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return args[i];
        };
        if (arg == "--name")
            opts.graphName = value("--name");
        else if (arg == "--cone")
            cone = value("--cone");
        else if (arg == "--path")
            pathSpec = value("--path");
        else if (arg == "--fault-sites")
            opts.faultSites = true;
        else
            throw std::runtime_error("unknown dot flag " + arg);
    }
    if (!cone.empty()) {
        int outIdx = -1;
        for (int j = 0; j < net.numOutputs(); ++j)
            if (net.outputName(j) == cone)
                outIdx = j;
        if (outIdx < 0)
            throw std::runtime_error("--cone: no output named '" +
                                     cone + "'");
        const std::vector<bool> in = outputCone(net, outIdx);
        for (GateId g = 0; g < net.numGates(); ++g)
            if (in[static_cast<std::size_t>(g)])
                opts.highlight.push_back(g);
    }
    if (!pathSpec.empty()) {
        const std::size_t colon = pathSpec.find(':');
        if (colon == std::string::npos)
            throw std::runtime_error("--path needs FROM:TO");
        const GateId src = resolveEndpoint(
            net, pathSpec.substr(0, colon), kNoGate, "--path");
        const GateId dst = resolveEndpoint(
            net, pathSpec.substr(colon + 1), kNoGate, "--path");
        const analysis::PathFinder finder(net);
        for (const GateId g : finder.gatesOnPaths(src, dst))
            opts.highlight.push_back(g);
    }
    writeDot(std::cout, net, opts);
    return 0;
}

int
cmdHarden(const CommonArgs &common)
{
    bool verify = false, json = false;
    std::uint64_t budget = 4096;
    for (std::size_t i = 0; i < common.rest.size(); ++i) {
        const std::string &arg = common.rest[i];
        if (arg == "--verify") {
            verify = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--budget") {
            if (++i >= common.rest.size())
                throw std::runtime_error("--budget needs a value");
            budget = util::checkedNumber<std::uint64_t>("--budget",
                                                         common.rest[i]);
        } else {
            throw std::runtime_error("unknown harden flag " + arg);
        }
    }
    const ingest::ImportedCircuit circ =
        ingest::importCircuit(common.path, common.format);
    const ingest::HardenedCircuit hard =
        ingest::hardenNetlist(circ.net);
    if (json)
        std::cerr << hard.report.toJson() << "\n";
    else
        std::cerr << hard.report;
    if (verify) {
        const bool ok = ingest::verifyAlternatingOperation(
            hard.net, hard.phiInput, budget);
        std::cerr << "alternating operation: "
                  << (ok ? "verified" : "VIOLATED") << " (" << budget
                  << " symbol budget)\n";
        if (!ok)
            return 2;
    }
    writeNetlist(std::cout, hard.net);
    return 0;
}

GateId
byName(const Netlist &net, const std::string &name)
{
    for (GateId g = 0; g < net.numGates(); ++g)
        if (net.gate(g).name == name)
            return g;
    throw std::runtime_error("no line named " + name);
}

int
cmdAnalyze(const Netlist &net)
{
    const auto report = core::runAlgorithm31(net);
    std::cout << "network: " << net.numInputs() << " inputs, "
              << net.cost().gates << " gates, " << net.numOutputs()
              << " outputs\n"
              << "alternating network (all outputs self-dual): "
              << (report.alternatingNetwork ? "yes" : "NO") << "\n\n";
    core::printReport(std::cout, net, report);
    return report.selfChecking() ? 0 : 2;
}

/**
 * A campaign command's arguments: the options of its kind, set by a
 * walk over the kind's option table (fault/options.hh), plus the run
 * settings no table holds.
 */
template <class T>
struct CampaignArgs
{
    T cfg;
    ShardArgs sh;
    /** --shards N in --server mode: ask the daemon to orchestrate. */
    int serverShards = 0;
    bool json = false;
    bool verbose = false;
};

/** The CampaignOptions or SeqCampaignOptions of a campaign config. */
template <class C>
auto &
optsOf(C &cfg)
{
    if constexpr (std::is_same_v<std::remove_const_t<C>,
                                 fault::SeqCampaignConfig>)
        return cfg.opts;
    else
        return cfg;
}

/** Parse the flags of @p cmd over the defaults @p cfg; φ names
 *  resolve against @p net. */
template <class T>
CampaignArgs<T>
parseCampaignArgs(const std::string &cmd,
                  const std::vector<std::string> &args, T cfg,
                  const Netlist &net)
{
    CampaignArgs<T> a;
    a.cfg = std::move(cfg);
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (fault::applyOptionFlag(fault::optionRows(a.cfg), args, &i, net))
            continue;
        const std::string &arg = args[i];
        const auto value = [&](const char *name) {
            if (++i >= args.size())
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return args[i];
        };
        const auto number = [&](const char *name) {
            return util::checkedNumber<int>(name, value(name));
        };
        if (arg == "--jobs")
            optsOf(a.cfg).jobs = number("--jobs");
        else if (arg == "--progress")
            optsOf(a.cfg).progressInterval = std::chrono::seconds(1);
        else if (arg == "--shard")
            a.sh.shard = engine::parseShardSpec(value("--shard"));
        else if (arg == "--shards")
            a.serverShards = number("--shards");
        else if (arg == "--partial")
            a.sh.partialPath = value("--partial");
        else if (arg == "--checkpoint")
            a.sh.checkpointPath = value("--checkpoint");
        else if (arg == "--checkpoint-every")
            // A negative cadence means automatic.
            a.sh.checkpointEvery = number("--checkpoint-every");
        else if (arg == "--resume")
            a.sh.resumePath = value("--resume");
        else if (arg == "--verdict-only")
            a.sh.verdictOnly = true;
        else if (arg == "--json")
            a.json = true;
        else if (arg == "--verbose" &&
                 std::is_same_v<T, fault::CampaignOptions>)
            a.verbose = true;
        else
            throw std::runtime_error("unknown " + cmd + " flag " + arg);
    }
    return a;
}

int
printCampaignResult(const Netlist &net,
                    const fault::CampaignResult &res, bool json,
                    bool verbose, bool verdictOnly)
{
    if (verdictOnly) {
        std::cout << fault::campaignVerdictJson(net, res);
        return res.selfChecking() ? 0 : 2;
    }
    if (json) {
        // The deterministic verdict (what the daemon caches) plus the
        // wall-clock tail — one shared encoder, so inline and daemon
        // output can never drift apart.
        std::cout << fault::withTailFields(
            fault::campaignVerdictJson(net, res),
            fault::campaignTailJson(res));
        return res.selfChecking() ? 0 : 2;
    }

    std::cout << "patterns applied: " << res.patternsApplied << " ("
              << res.lanes << " lanes/replay, "
              << sim::simdTargetName(res.simd) << " kernels)\n"
              << "faults: " << res.faults.size() << "\n"
              << "detected: " << res.numDetected << "\n"
              << "unsafe: " << res.numUnsafe << "\n"
              << "untestable: " << res.numUntestable << "\n"
              << "jobs: " << res.stats.jobs << ", "
              << res.stats.simulatedFaults
              << " fault classes simulated (collapse ratio "
              << res.stats.collapseRatio << "), "
              << res.stats.elapsedSeconds << " s\n";
    std::cout << "fault-parallel: " << res.fp.classes << " classes = "
              << res.fp.flipClasses << " flip-derived + "
              << res.fp.cptClasses << " critical-path-traced + "
              << res.fp.simClasses << " simulated + " << res.fp.tapClasses
              << " output-tap + " << res.fp.prunedClasses << " pruned ("
              << res.fp.prunedFaults << " faults); " << res.fp.batches
              << " batches\n";
    if (verbose) {
        // The per-fault classification table the campaign computed.
        for (const auto &fr : res.faults) {
            std::cout << "  " << faultToString(net, fr.fault) << ": "
                      << fault::outcomeName(fr.outcome);
            if (!fr.unsafePatterns.empty()) {
                std::cout << " (unsafe at";
                for (std::uint64_t m : fr.unsafePatterns)
                    std::cout << " " << m;
                std::cout << ")";
            }
            std::cout << "\n";
        }
    } else {
        for (const auto &fr : res.faults) {
            if (fr.outcome == fault::Outcome::Unsafe)
                std::cout << "  UNSAFE "
                          << faultToString(net, fr.fault) << "\n";
        }
    }
    std::cout << (res.selfChecking() ? "SELF-CHECKING"
                                     : "NOT self-checking")
              << "\n";
    return res.selfChecking() ? 0 : 2;
}

int
printSeqCampaignResult(const Netlist &net,
                       const fault::SeqCampaignResult &res, bool json,
                       bool verdictOnly)
{
    if (verdictOnly) {
        std::cout << fault::seqCampaignVerdictJson(net, res);
        return res.selfChecking() ? 0 : 2;
    }

    if (json) {
        // Shared verdict/tail encoders (fault/report.hh); the
        // collapsing-dependent periods_* counters live in the tail
        // with the stats now, after the deterministic fields.
        std::cout << fault::withTailFields(
            fault::seqCampaignVerdictJson(net, res),
            fault::seqCampaignTailJson(res));
        return res.selfChecking() ? 0 : 2;
    }

    const auto col = fault::collapseFaults(net);
    std::cout << "symbols: " << res.symbols << " x " << res.lanes
              << " lanes (" << sim::simdTargetName(res.simd)
              << " kernels)\n"
              << "faults: " << res.faults.size() << " ("
              << col.representatives.size()
              << " classes, collapse ratio " << col.ratio() << ")\n"
              << "detected: " << res.numDetected << "\n"
              << "unsafe: " << res.numUnsafe << "\n"
              << "untestable: " << res.numUntestable << "\n"
              << "mean first-alarm period: " << res.meanAlarmPeriod
              << " over " << res.alarmLaneCount << " (fault, lane) alarms\n"
              << "periods simulated/skipped: " << res.periodsSimulated
              << "/" << res.periodsSkipped << "\n";
    std::cout << "detection latency (log2 buckets of first-alarm period):\n";
    for (int k = 0; k < fault::kLatencyBuckets; ++k) {
        if (!res.latencyHistogram[k])
            continue;
        const long lo = (1L << k) - 1;
        const long hi = (1L << (k + 1)) - 2;
        std::cout << "  [" << lo << ", " << hi
                  << "]: " << res.latencyHistogram[k] << "\n";
    }
    for (const auto &fv : res.faults) {
        if (fv.outcome == fault::Outcome::Unsafe)
            std::cout << "  UNSAFE " << faultToString(net, fv.fault)
                      << " (escape at period " << fv.firstEscapePeriod
                      << ")\n";
    }
    std::cout << (res.selfChecking() ? "SELF-CHECKING"
                                     : "NOT self-checking")
              << "\n";
    return res.selfChecking() ? 0 : 2;
}

/** Merge comb or seq @p partials and print them as the inline command
 *  would. */
int
printMerged(const std::string &kind, const Netlist &net,
            const std::vector<std::vector<std::uint8_t>> &partials,
            const std::vector<std::string> &names, bool json, bool verbose,
            bool verdictOnly)
{
    if (kind == "comb")
        return printCampaignResult(
            net, fault::mergeCampaignPartials(net, partials, names), json,
            verbose, verdictOnly);
    return printSeqCampaignResult(
        net, fault::mergeSeqCampaignPartials(net, partials, names), json,
        verdictOnly);
}

/**
 * Client mode: submit the locally loaded (and already hardened, if
 * --harden) circuit with the options in @p flags (spelled by
 * server::configJson, a walk over the option table) to the daemon,
 * optionally stream progress, then print exactly what the inline
 * --json path would have printed — the daemon's cached verdict plus
 * the tail of whichever run computed it.
 */
template <class T>
int
submitAndPrint(const CommonArgs &common, const Netlist &net,
               const char *kind, CampaignArgs<T> flags)
{
    using server::jsonl::Object;
    using server::jsonl::Value;
    Value cfg = server::configJson(fault::optionRows(flags.cfg));
    if (flags.serverShards > 0)
        cfg.set("shards", Value(flags.serverShards));
    Object req;
    req.emplace_back("op", Value("submit"));
    req.emplace_back("kind", Value(kind));
    req.emplace_back("client", Value(common.client));
    req.emplace_back("priority", Value(common.priority));
    req.emplace_back("circuit", Value(writeNetlistToString(net)));
    req.emplace_back("format", Value("scal"));
    req.emplace_back("config", std::move(cfg));
    server::Client client(common.server);

    const Value sub = client.request(Value(std::move(req)));
    const Value *ok = sub.find("ok");
    if (!ok || !ok->asBool()) {
        const Value *rej = sub.find("rejected");
        const Value *err = sub.find("error");
        throw std::runtime_error(
            "daemon rejected submit: " +
            (rej ? rej->asString()
                 : err ? err->asString() : std::string("unknown")));
    }
    const std::uint64_t id = sub.find("id")->asUint64();

    if (optsOf(flags.cfg).progressInterval.count() > 0) {
        // Ctrl-C cancels the job server-side: the handler flips the
        // token, and the event loop (woken at least once per progress
        // period) forwards it as a cancel request. The cancel ack has
        // no "event" field and is skipped like any non-event line;
        // the loop then ends on the job's cancelled terminal event.
        std::signal(SIGINT, onInterrupt);
        bool cancelSent = false;
        Object s;
        s.emplace_back("op", Value("subscribe"));
        s.emplace_back("id", Value(id));
        client.request(Value(std::move(s))); // ack
        for (;;) {
            const Value ev = client.readLine();
            if (g_cancel.stopRequested() && !cancelSent) {
                Object c;
                c.emplace_back("op", Value("cancel"));
                c.emplace_back("id", Value(id));
                client.send(Value(std::move(c)));
                cancelSent = true;
            }
            const Value *type = ev.find("event");
            if (!type)
                continue;
            if (type->asString() == "terminal")
                break;
            const Value *done = ev.find("faults_done");
            const Value *total = ev.find("faults_total");
            if (done && total)
                std::cerr << "job " << id << ": " << done->asUint64()
                          << "/" << total->asUint64() << " faults\n";
        }
    }

    Object r;
    r.emplace_back("op", Value("result"));
    r.emplace_back("id", Value(id));
    const Value res = client.request(Value(std::move(r)));
    const std::string state = res.find("state")->asString();
    if (state == "cancelled") {
        std::cerr << "job " << id << " cancelled\n";
        return 130;
    }
    if (state != "done") {
        const Value *err = res.find("error");
        std::cerr << "job " << id << " " << state << ": "
                  << (err ? err->asString() : "unknown error") << "\n";
        return 1;
    }
    const Value *verdict = res.find("verdict");
    const Value *tail = res.find("tail");
    const std::string out = fault::withTailFields(
        verdict ? verdict->asString() : std::string(),
        tail ? tail->asString() : std::string());
    std::cout << out;
    return out.find("\"self_checking\": true") != std::string::npos
               ? 0
               : 2;
}

/**
 * Run campaign or seq-campaign (over the option defaults @p dflt):
 * inline, in shard / checkpoint / resume mode, or on the daemon.
 */
template <class T>
int
cmdCampaign(const CommonArgs &common, const Netlist &net, T dflt)
{
    constexpr bool comb = std::is_same_v<T, fault::CampaignOptions>;
    CampaignArgs<T> flags =
        parseCampaignArgs(common.cmd, common.rest, std::move(dflt), net);
    if (!common.server.empty())
        return submitAndPrint(common, net, comb ? "comb" : "seq", flags);
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    optsOf(flags.cfg).cancel = &g_cancel;

    const ShardArgs &sh = flags.sh;
    const auto print = [&](const auto &res) {
        if constexpr (comb)
            return printCampaignResult(net, res, flags.json, flags.verbose,
                                       sh.verdictOnly);
        else
            return printSeqCampaignResult(net, res, flags.json,
                                          sh.verdictOnly);
    };
    if (!sh.enabled()) {
        if constexpr (comb)
            return print(fault::runAlternatingCampaign(net, flags.cfg));
        else
            return print(fault::runSequentialCampaign(net, flags.cfg.spec,
                                                      flags.cfg.opts));
    }
    ShardSession session(sh);
    try {
        fault::ShardOutcome out;
        if constexpr (comb)
            out = fault::runAlternatingCampaignShard(net, flags.cfg, sh.shard,
                                                     session.ckpt);
        else
            out = fault::runSequentialCampaignShard(
                net, flags.cfg.spec, flags.cfg.opts, sh.shard, session.ckpt);
        session.dropCheckpoint();
        std::cerr << "shard " << sh.shard.str() << ": "
                  << out.shardClasses << " classes / " << out.shardFaults
                  << " faults (" << out.units << " units, "
                  << out.resumedUnits << " resumed)\n";
        if (!sh.partialPath.empty())
            std::cerr << "partial written to " << sh.partialPath << "\n";
        if (sh.shard.active())
            return 0; // verdict is judged at merge
        if constexpr (comb)
            return print(fault::mergeCampaignPartials(net, {out.partial}));
        else
            return print(fault::mergeSeqCampaignPartials(net, {out.partial}));
    } catch (const engine::CampaignCancelled &) {
        session.printResumeHint();
        throw;
    }
}

/**
 * Merge complete shard partials into the full campaign verdict. The
 * snapshot kind (comb / seq / system) is read from the first partial;
 * comb and seq need the campaign circuit (the classic positional /
 * --circuit, exactly as the workers saw it), system partials are
 * self-contained so every positional argument is a partial file.
 */
int
cmdMerge(const CommonArgs &common)
{
    bool json = false, verdictOnly = false, verbose = false;
    std::vector<std::string> files;
    for (const std::string &arg : common.rest) {
        if (arg == "--json")
            json = true;
        else if (arg == "--verdict-only")
            verdictOnly = true;
        else if (arg == "--verbose")
            verbose = true;
        else if (!arg.empty() && arg[0] == '-')
            throw std::runtime_error("unknown merge flag " + arg);
        else
            files.push_back(arg);
    }
    if (files.empty() && common.path.empty())
        throw std::runtime_error(
            "merge needs a circuit plus partial files: "
            "scal_cli merge <circuit|-> part1.snp part2.snp ...");

    // Peek at the kind before deciding whether the first positional
    // (claimed as the circuit path by the common scan) is a circuit
    // or — for self-contained system partials — itself a partial.
    const std::string probeName =
        files.empty() ? common.path : files.front();
    const std::string kind =
        fault::snapshotHeader(engine::readSnapshotFile(probeName),
                              probeName)
            .kind;
    if (kind == "system" && !common.path.empty())
        files.insert(files.begin(), common.path);

    std::vector<std::vector<std::uint8_t>> partials;
    partials.reserve(files.size());
    for (const std::string &f : files)
        partials.push_back(engine::readSnapshotFile(f));

    if (kind == "comb" || kind == "seq")
        return printMerged(kind, load(common), partials, files, json,
                           verbose, verdictOnly);
    if (kind == "system") {
        // The header's canonical config key carries the op and CPU
        // choice: "system;workload=<name>;op=<OP>;checked=<0|1>".
        const engine::SnapshotHeader hdr =
            fault::snapshotHeader(partials.front(), files.front());
        const auto field = [&](const std::string &key) {
            const std::string tag = key + "=";
            const std::size_t at = hdr.configKey.find(tag);
            if (at == std::string::npos)
                throw std::runtime_error(
                    "merge: no '" + key + "' in system config key '" +
                    hdr.configKey + "'");
            const std::size_t from = at + tag.size();
            return hdr.configKey.substr(
                from, hdr.configKey.find(';', from) - from);
        };
        const std::string opName = field("op");
        const bool checked = field("checked") == "1";
        const scal::system::SystemCampaignResult res =
            scal::system::mergeSystemPartials(
                scal::system::parseAluOp(opName), checked, partials,
                files);
        if (json || verdictOnly) {
            std::cout << scal::system::systemResultJson(res);
        } else {
            std::cout << field("workload") << " " << opName << " ("
                      << (checked ? "SCAL" : "unchecked")
                      << "): " << res.total << " faults, "
                      << res.masked << " masked, " << res.detected
                      << " detected, " << res.silent << " silent\n";
            for (const std::string &f : res.silentFaults)
                std::cout << "  SILENT " << f << "\n";
        }
        return res.silent == 0 ? 0 : 2;
    }
    throw std::runtime_error("merge: unsupported snapshot kind '" +
                             kind + "' in " + files.front());
}

/** This binary's path, for forking shard workers. */
std::string
selfExePath(const char *argv0)
{
    std::error_code ec;
    const std::filesystem::path p =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(argv0) : p.string();
}

/**
 * Fork-and-supervise orchestrator: write the loaded (and already
 * hardened, when --harden) circuit into the work directory, fork one
 * campaign worker per shard with checkpointing on, restart killed or
 * failed workers from their last checkpoint, then merge the partials
 * and print the verdict exactly like the inline command would.
 */
int
cmdShardRun(const CommonArgs &common, const char *argv0)
{
    int shards = 0;
    std::string kind = "comb";
    std::string workdir;
    int checkpointEvery = -1; // auto cadence (~16 snapshots/shard)
    int maxRestarts = 3;
    int testKill = 0; // 1-based worker to SIGKILL once (CI fault hook)
    bool json = false, verdictOnly = false, verbose = false;
    bool progress = false;
    std::vector<std::string> fwd; // campaign flags for the workers

    for (std::size_t i = 0; i < common.rest.size(); ++i) {
        const std::string &arg = common.rest[i];
        const auto value = [&](const char *name) {
            if (++i >= common.rest.size())
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return common.rest[i];
        };
        if (arg == "--shards")
            shards = util::checkedNumber<int>("--shards", value("--shards"));
        else if (arg == "--kind")
            kind = value("--kind");
        else if (arg == "--workdir")
            workdir = value("--workdir");
        else if (arg == "--checkpoint-every")
            checkpointEvery = util::checkedNumber<int>(
                "--checkpoint-every", value("--checkpoint-every"));
        else if (arg == "--max-restarts")
            maxRestarts = util::checkedNumber<int>("--max-restarts",
                                                    value("--max-restarts"));
        else if (arg == "--test-kill")
            testKill =
                util::checkedNumber<int>("--test-kill", value("--test-kill"));
        else if (arg == "--json")
            json = true;
        else if (arg == "--verdict-only")
            verdictOnly = true;
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--progress")
            progress = true;
        else
            fwd.push_back(arg);
    }
    if (shards < 1 || shards > engine::kMaxShards)
        throw std::runtime_error("shard-run needs --shards N (1.." +
                                 std::to_string(engine::kMaxShards) + ")");
    if (kind != "comb" && kind != "seq")
        throw std::runtime_error("--kind needs comb|seq, got '" + kind +
                                 "'");

    // Re-parse the forwarded flags with the real campaign parser so
    // bad flags fail here, not inside N forked workers, and so the
    // worker argv is re-serialized from the parsed options.
    const Netlist net = load(common);
    std::vector<std::string> workerFlags;
    if (kind == "comb") {
        workerFlags = fault::campaignWorkerArgs(
            parseCampaignArgs("campaign", fwd, fault::CampaignOptions{}, net)
                .cfg);
    } else {
        const fault::SeqCampaignConfig cfg =
            parseCampaignArgs("seq-campaign", fwd,
                              fault::defaultSeqConfig(net), net)
                .cfg;
        workerFlags = fault::seqCampaignWorkerArgs(cfg.opts, cfg.spec);
    }
    if (workdir.empty())
        workdir = "scal-shard-run";
    const fault::ShardWorkers fleet =
        fault::stageShardWorkers(net, kind, workerFlags, selfExePath(argv0),
                                 workdir, shards, checkpointEvery);
    const std::vector<engine::WorkerSpec> &workers = fleet.workers;
    const std::vector<std::string> &partialPaths = fleet.partials;

    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    engine::OrchestratorOptions oo;
    oo.maxRestarts = maxRestarts;
    oo.cancel = &g_cancel;
    oo.testKillWorker = testKill - 1;
    std::uint64_t lastDoneUnits = ~std::uint64_t{0};
    oo.onPoll = [&](int done, int total) {
        if (!progress)
            return;
        // Aggregate checkpoint-derived progress across the fleet: a
        // finished worker counts its partial, a live one its last
        // checkpoint (atomic rename means either reads clean or not
        // at all).
        std::uint64_t cur = 0, units = 0;
        for (const engine::WorkerSpec &w : workers) {
            try {
                const engine::SnapshotHeader hdr = fault::snapshotHeader(
                    engine::readSnapshotFile(w.checkpointPath),
                    w.checkpointPath);
                cur += hdr.cursor;
                units += hdr.units;
            } catch (const engine::SnapshotError &) {
                // not written yet / mid-rename: counts as no progress
            }
        }
        if (cur == lastDoneUnits)
            return;
        lastDoneUnits = cur;
        std::cerr << "shard-run: " << cur << "/" << units
                  << " units, " << done << "/" << total
                  << " workers done\n";
    };

    const engine::OrchestratorResult orch =
        engine::runShardWorkers(workers, oo);
    if (orch.cancelled) {
        std::cerr << "shard-run cancelled; checkpoints kept in "
                  << workdir << "\n";
        return 130;
    }
    if (!orch.ok) {
        std::cerr << "shard-run failed: " << orch.error << "\n";
        for (std::size_t k = 0; k < orch.workers.size(); ++k)
            std::cerr << "  worker " << k + 1 << ": "
                      << orch.workers[k].attempts << " attempts, last exit "
                      << orch.workers[k].lastExit << "\n";
        return 1;
    }
    if (orch.totalRestarts > 0)
        std::cerr << "shard-run: " << orch.totalRestarts
                  << " worker restart(s) recovered from checkpoints\n";

    std::vector<std::vector<std::uint8_t>> partials;
    partials.reserve(partialPaths.size());
    for (const std::string &p : partialPaths)
        partials.push_back(engine::readSnapshotFile(p));
    for (const engine::WorkerSpec &w : workers)
        std::remove(w.checkpointPath.c_str()); // stale after success

    return printMerged(kind, net, partials, partialPaths, json, verbose,
                       verdictOnly);
}

int
cmdTests(const Netlist &net, const std::string &line)
{
    core::ScalAnalyzer an(net);
    const GateId g = byName(net, line);
    for (bool s : {false, true}) {
        const Fault fault{{g, FaultSite::kStem, -1}, s};
        const auto tests = core::networkTests(an, fault);
        std::cout << line << " s-a-" << s << ":";
        if (tests.empty()) {
            const auto fa = an.analyzeFault(fault);
            if (!fa.unsafe.isZero()) {
                std::cout << " NO TEST — the fault can only appear "
                             "as a wrong code word (unsafe)";
            } else {
                std::cout << " untestable (redundant line)";
            }
        }
        for (std::uint64_t m : tests)
            std::cout << " " << m;
        std::cout << "\n";
    }
    return 0;
}

int
cmdRepair(const Netlist &net, const std::string &line, int depth)
{
    const Netlist repaired =
        core::repairByFanoutSplit(net, byName(net, line), depth);
    writeNetlist(std::cout, repaired);
    return 0;
}

int
cmdConvertMinority(const Netlist &net)
{
    const auto conv = minority::convertNandNetwork(net);
    std::cerr << "modules: " << conv.modules
              << ", module inputs: " << conv.moduleInputs << "\n";
    writeNetlist(std::cout, conv.net);
    return 0;
}

int
cmdSelfTest()
{
    // Round-trip the Section 3.6 network through the text format and
    // confirm the known verdicts survive.
    const Netlist net = circuits::section36Network();
    const Netlist back =
        readNetlistFromString(writeNetlistToString(net));
    const auto broken = fault::runAlternatingCampaign(back);
    const auto fixed = fault::runAlternatingCampaign(
        circuits::section36NetworkRepaired());
    const bool ok = !broken.selfChecking() && broken.numUnsafe == 4 &&
                    fixed.selfChecking();
    std::cout << (ok ? "selftest ok" : "selftest FAILED") << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CommonArgs common = parseCommonArgs(argc, argv);

        // The "resume with:" hint an interrupted checkpointable run
        // prints: this invocation minus any stale --resume pair (the
        // handler appends the fresh one).
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--resume") {
                ++i; // drop the pair
                continue;
            }
            if (!g_resumeCommand.empty())
                g_resumeCommand += ' ';
            const bool quote =
                arg.empty() ||
                arg.find_first_of(" \t'\"$&|;<>()*?") !=
                    std::string::npos;
            g_resumeCommand += quote ? "'" + arg + "'" : arg;
        }

        if (common.cmd == "selftest")
            return cmdSelfTest();
        if (common.path.empty()) {
            std::cerr << "usage: scal_cli "
                         "{import|report|paths|harden|analyze|campaign|"
                         "seq-campaign|merge|shard-run|tests|repair|"
                         "convert-minority|dot|selftest} "
                         "<circuit|-> [--circuit FILE] [--format F] "
                         "[--harden] [--server SOCK] [args]\n";
            return 64;
        }
        if (common.cmd == "import")
            return cmdImport(common);
        if (common.cmd == "report")
            return cmdReport(common);
        if (common.cmd == "harden")
            return cmdHarden(common);
        if (common.cmd == "merge")
            return cmdMerge(common);
        if (common.cmd == "shard-run")
            return cmdShardRun(common, argv[0]);

        // The per-command flag parsers see only the args the common
        // scan did not claim.
        const std::vector<std::string> &rest = common.rest;
        const Netlist net = load(common);
        if (common.cmd == "analyze")
            return cmdAnalyze(net);
        if (common.cmd == "campaign")
            return cmdCampaign(common, net, fault::CampaignOptions{});
        if (common.cmd == "seq-campaign")
            return cmdCampaign(common, net, fault::defaultSeqConfig(net));
        if (common.cmd == "tests" && !rest.empty())
            return cmdTests(net, rest[0]);
        if (common.cmd == "repair" && !rest.empty())
            return cmdRepair(
                net, rest[0],
                rest.size() > 1
                    ? util::checkedNumber<int>("repair depth", rest[1])
                    : 4);
        if (common.cmd == "convert-minority")
            return cmdConvertMinority(net);
        if (common.cmd == "paths")
            return cmdPaths(net, common.rest);
        if (common.cmd == "dot")
            return cmdDot(net, common.rest);
        std::cerr << "unknown command " << common.cmd << "\n";
        return 64;
    } catch (const engine::CampaignCancelled &) {
        std::cerr << "cancelled\n";
        return 130;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
