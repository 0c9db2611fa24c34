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
 *                     [--phi NAME] [--data I,J,..] [--alt I,J,..]
 *                     [--code-pairs P,Q,..] [--hold I,J,..]
 *                     [--simd portable|avx2|avx512] [--[no-]dominance]
 *                     [--[no-]seq-fault-batch] [--[no-]seq-dominance]
 *                     [--json] [--progress]
 *                                        sequential alternating campaign
 *
 * Both campaigns run the width-generic SIMD kernels (sim/wide.hh):
 * --lanes picks patterns/streams per packed replay (0 = widest the
 * resolved target supports), --simd pins the kernel build (default
 * auto: the SCAL_SIMD env var, else the widest the CPU supports).
 * The combinational campaign always runs the fault-parallel pipeline
 * (FFR flip batching, critical-path tracing, dominance pruning). The
 * sequential campaign keeps two work-saving knobs: --seq-fault-batch
 * multiplexes several faults into disjoint lane groups of one wide
 * sequential replay, and --seq-dominance extends collapsing with
 * sequential constant propagation and time-frame Dff equivalences.
 * Verdicts are bit-identical across simd, jobs and these flags, and
 * across --lanes for the combinational campaign (sequential --lanes
 * sets the number of random streams).
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
#include "fault/report.hh"
#include "fault/seq_campaign.hh"
#include "fault/shard.hh"
#include "minority/convert.hh"
#include "netlist/circuits.hh"
#include "netlist/dot.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "server/client.hh"
#include "sim/alternating.hh"
#include "sim/simd.hh"
#include "system/alu.hh"
#include "system/campaign.hh"

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

/** Parse @p v as a whole signed number; otherwise throw an error that
 *  names @p flag. */
long
checkedLong(const char *flag, const std::string &v)
{
    try {
        std::size_t pos = 0;
        const long n = std::stol(v, &pos);
        if (pos != v.size())
            throw std::invalid_argument(v);
        return n;
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(flag) +
                                 " needs a number, got '" + v + "'");
    }
}

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
            common.priority = std::stoi(value("--priority"));
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
            maxPaths = std::stoul(value("--max"));
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
            budget = std::stoull(common.rest[i]);
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
    std::cout << "network: " << net.numInputs() << " inputs, "
              << net.cost().gates << " gates, " << net.numOutputs()
              << " outputs\n"
              << "alternating network (all outputs self-dual): "
              << (sim::isAlternatingNetwork(net) ? "yes" : "NO")
              << "\n\n";
    const auto report = core::runAlgorithm31(net);
    core::printReport(std::cout, net, report);
    return report.selfChecking() ? 0 : 2;
}

sim::SimdTarget
parseSimdFlag(const std::string &v)
{
    sim::SimdTarget t = sim::SimdTarget::Auto;
    if (!sim::parseSimdTarget(v.c_str(), &t))
        throw std::runtime_error(
            "--simd needs auto|portable|avx2|avx512, got '" + v + "'");
    return t;
}

struct CampaignFlags
{
    fault::CampaignOptions opts;
    ShardArgs sh;
    /** --shards N in --server mode: ask the daemon to orchestrate. */
    int serverShards = 0;
    bool json = false;
    bool verbose = false;
};

CampaignFlags
parseCampaignFlags(int argc, char **argv, int first)
{
    CampaignFlags flags;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *name) {
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return std::string(argv[++i]);
        };
        const auto number = [&](const char *name) -> std::uint64_t {
            const std::string v = value(name);
            try {
                std::size_t pos = 0;
                const std::uint64_t n = std::stoull(v, &pos);
                if (pos != v.size())
                    throw std::invalid_argument(v);
                return n;
            } catch (const std::exception &) {
                throw std::runtime_error(std::string(name) +
                                         " needs a number, got '" + v +
                                         "'");
            }
        };
        if (arg == "--jobs")
            flags.opts.jobs = static_cast<int>(number("--jobs"));
        else if (arg == "--seed")
            flags.opts.seed = number("--seed");
        else if (arg == "--max-patterns")
            flags.opts.maxPatterns = number("--max-patterns");
        else if (arg == "--lanes")
            flags.opts.lanes = static_cast<int>(number("--lanes"));
        else if (arg == "--simd")
            flags.opts.simd = parseSimdFlag(value("--simd"));
        else if (arg == "--keep-unsafe")
            flags.opts.keepUnsafeExamples =
                static_cast<int>(number("--keep-unsafe"));
        else if (arg == "--check-alternating")
            flags.opts.checkAlternating = true;
        else if (arg == "--no-check-alternating")
            flags.opts.checkAlternating = false;
        else if (arg == "--shard")
            flags.sh.shard = engine::parseShardSpec(value("--shard"));
        else if (arg == "--shards")
            flags.serverShards = static_cast<int>(number("--shards"));
        else if (arg == "--partial")
            flags.sh.partialPath = value("--partial");
        else if (arg == "--checkpoint")
            flags.sh.checkpointPath = value("--checkpoint");
        else if (arg == "--checkpoint-every")
            // Signed, not the unsigned helper: negative = auto cadence.
            flags.sh.checkpointEvery = static_cast<int>(checkedLong(
                "--checkpoint-every", value("--checkpoint-every")));
        else if (arg == "--resume")
            flags.sh.resumePath = value("--resume");
        else if (arg == "--verdict-only")
            flags.sh.verdictOnly = true;
        else if (arg == "--progress")
            flags.opts.progressInterval = std::chrono::seconds(1);
        else if (arg == "--json")
            flags.json = true;
        else if (arg == "--verbose")
            flags.verbose = true;
        else
            throw std::runtime_error("unknown campaign flag " + arg);
    }
    return flags;
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

/** Shard / checkpoint / resume mode of the combinational campaign. */
int
cmdCampaignShard(const Netlist &net, const CampaignFlags &flags)
{
    const ShardArgs &sh = flags.sh;
    ShardSession session(sh);
    try {
        const fault::ShardOutcome out = fault::runAlternatingCampaignShard(
            net, flags.opts, sh.shard, session.ckpt);
        session.dropCheckpoint();
        std::cerr << "shard " << sh.shard.str() << ": "
                  << out.shardClasses << " classes / " << out.shardFaults
                  << " faults (" << out.units << " units, "
                  << out.resumedUnits << " resumed)\n";
        if (!sh.partialPath.empty())
            std::cerr << "partial written to " << sh.partialPath << "\n";
        if (sh.shard.active())
            return 0; // verdict is judged at merge
        const fault::CampaignResult res =
            fault::mergeCampaignPartials(net, {out.partial});
        return printCampaignResult(net, res, flags.json, flags.verbose,
                                   sh.verdictOnly);
    } catch (const engine::CampaignCancelled &) {
        session.printResumeHint();
        throw;
    }
}

int
cmdCampaign(const Netlist &net, const CampaignFlags &flags)
{
    if (flags.sh.enabled())
        return cmdCampaignShard(net, flags);
    const auto res = fault::runAlternatingCampaign(net, flags.opts);
    return printCampaignResult(net, res, flags.json, flags.verbose,
                               flags.sh.verdictOnly);
}

struct SeqCampaignFlags
{
    fault::SeqCampaignOptions opts;
    fault::SeqCampaignSpec spec;
    ShardArgs sh;
    /** --shards N in --server mode: ask the daemon to orchestrate. */
    int serverShards = 0;
    std::string phiName = "phi";
    bool json = false;
};

std::vector<int>
parseIndexList(const std::string &v, const char *name)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
        std::size_t comma = v.find(',', pos);
        if (comma == std::string::npos)
            comma = v.size();
        try {
            out.push_back(std::stoi(v.substr(pos, comma - pos)));
        } catch (const std::exception &) {
            throw std::runtime_error(
                std::string(name) +
                " needs a comma-separated index list, got '" + v + "'");
        }
        pos = comma + 1;
    }
    return out;
}

SeqCampaignFlags
parseSeqCampaignFlags(int argc, char **argv, int first)
{
    SeqCampaignFlags flags;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *name) {
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(name) +
                                         " needs a value");
            return std::string(argv[++i]);
        };
        const auto number = [&](const char *name) {
            return checkedLong(name, value(name));
        };
        if (arg == "--symbols")
            flags.opts.symbols = number("--symbols");
        else if (arg == "--lanes")
            flags.opts.lanes = static_cast<int>(number("--lanes"));
        else if (arg == "--seed")
            flags.opts.seed =
                static_cast<std::uint64_t>(number("--seed"));
        else if (arg == "--jobs")
            flags.opts.jobs = static_cast<int>(number("--jobs"));
        else if (arg == "--window") {
            const std::string v = value("--window");
            const auto colon = v.find(':');
            if (colon == std::string::npos)
                throw std::runtime_error(
                    "--window needs START:END in periods");
            flags.opts.faultStart = std::stol(v.substr(0, colon));
            flags.opts.faultEnd = std::stol(v.substr(colon + 1));
        } else if (arg == "--simd")
            flags.opts.simd = parseSimdFlag(value("--simd"));
        else if (arg == "--no-drop")
            flags.opts.dropDetected = false;
        else if (arg == "--dominance")
            flags.opts.dominance = true;
        else if (arg == "--no-dominance")
            flags.opts.dominance = false;
        else if (arg == "--seq-fault-batch")
            flags.opts.faultBatch = true;
        else if (arg == "--no-seq-fault-batch")
            flags.opts.faultBatch = false;
        else if (arg == "--seq-dominance") {
            // Also *forces* the pass on netlists the campaign would
            // auto-skip it for (verified hardened realizations).
            flags.opts.seqDominance = true;
            flags.opts.seqDominanceForce = true;
        } else if (arg == "--no-seq-dominance")
            flags.opts.seqDominance = false;
        else if (arg == "--phi")
            flags.phiName = value("--phi");
        else if (arg == "--phi-index")
            flags.spec.phiInput =
                static_cast<int>(number("--phi-index"));
        else if (arg == "--data")
            flags.spec.dataOutputs =
                parseIndexList(value("--data"), "--data");
        else if (arg == "--alt")
            flags.spec.altOutputs =
                parseIndexList(value("--alt"), "--alt");
        else if (arg == "--code-pairs")
            flags.spec.codePairs =
                parseIndexList(value("--code-pairs"), "--code-pairs");
        else if (arg == "--hold")
            flags.spec.holdInputs =
                parseIndexList(value("--hold"), "--hold");
        else if (arg == "--shard")
            flags.sh.shard = engine::parseShardSpec(value("--shard"));
        else if (arg == "--shards")
            flags.serverShards = static_cast<int>(number("--shards"));
        else if (arg == "--partial")
            flags.sh.partialPath = value("--partial");
        else if (arg == "--checkpoint")
            flags.sh.checkpointPath = value("--checkpoint");
        else if (arg == "--checkpoint-every")
            flags.sh.checkpointEvery =
                static_cast<int>(number("--checkpoint-every"));
        else if (arg == "--resume")
            flags.sh.resumePath = value("--resume");
        else if (arg == "--verdict-only")
            flags.sh.verdictOnly = true;
        else if (arg == "--progress")
            flags.opts.progressInterval = std::chrono::seconds(1);
        else if (arg == "--json")
            flags.json = true;
        else
            throw std::runtime_error("unknown seq-campaign flag " +
                                     arg);
    }
    return flags;
}

/**
 * The spec a seq campaign actually runs: every output is both a data
 * word and a line that must alternate unless --data/--alt/--code-pairs
 * narrowed it; φ is the input named --phi (default "phi") when the
 * netlist has one, unless --phi-index pinned it already.
 */
fault::SeqCampaignSpec
resolvedSeqSpec(const Netlist &net, const SeqCampaignFlags &flags)
{
    fault::SeqCampaignSpec spec = flags.spec;
    if (spec.phiInput < 0) {
        for (int i = 0; i < net.numInputs(); ++i) {
            if (net.gate(net.inputs()[i]).name == flags.phiName)
                spec.phiInput = i;
        }
    }
    return spec;
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
    const auto col = fault::collapseFaults(net);

    if (json) {
        // Shared verdict/tail encoders (fault/report.hh); the
        // collapsing-dependent periods_* counters live in the tail
        // with the stats now, after the deterministic fields.
        std::cout << fault::withTailFields(
            fault::seqCampaignVerdictJson(net, res),
            fault::seqCampaignTailJson(res));
        return res.selfChecking() ? 0 : 2;
    }

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

/** Shard / checkpoint / resume mode of the sequential campaign. */
int
cmdSeqCampaignShard(const Netlist &net,
                    const fault::SeqCampaignSpec &spec,
                    const SeqCampaignFlags &flags)
{
    const ShardArgs &sh = flags.sh;
    ShardSession session(sh);
    try {
        const fault::ShardOutcome out = fault::runSequentialCampaignShard(
            net, spec, flags.opts, sh.shard, session.ckpt);
        session.dropCheckpoint();
        std::cerr << "shard " << sh.shard.str() << ": "
                  << out.shardClasses << " classes / " << out.shardFaults
                  << " faults (" << out.units << " units, "
                  << out.resumedUnits << " resumed)\n";
        if (!sh.partialPath.empty())
            std::cerr << "partial written to " << sh.partialPath << "\n";
        if (sh.shard.active())
            return 0; // verdict is judged at merge
        const fault::SeqCampaignResult res =
            fault::mergeSeqCampaignPartials(net, {out.partial});
        return printSeqCampaignResult(net, res, flags.json,
                                      sh.verdictOnly);
    } catch (const engine::CampaignCancelled &) {
        session.printResumeHint();
        throw;
    }
}

int
cmdSeqCampaign(const Netlist &net, const SeqCampaignFlags &flags)
{
    const fault::SeqCampaignSpec spec = resolvedSeqSpec(net, flags);
    if (flags.sh.enabled())
        return cmdSeqCampaignShard(net, spec, flags);
    const auto res = fault::runSequentialCampaign(net, spec, flags.opts);
    return printSeqCampaignResult(net, res, flags.json,
                                  flags.sh.verdictOnly);
}

server::jsonl::Value
indexListValue(const std::vector<int> &v)
{
    server::jsonl::Array arr;
    for (int i : v)
        arr.emplace_back(i);
    return server::jsonl::Value(std::move(arr));
}

/**
 * Client mode: submit the locally loaded (and already hardened, if
 * --harden) circuit to the daemon, optionally stream progress, then
 * print exactly what the inline --json path would have printed — the
 * daemon's cached verdict plus the tail of whichever run computed it.
 */
int
submitAndPrint(const CommonArgs &common, server::jsonl::Value req,
               bool streamProgress)
{
    using server::jsonl::Object;
    using server::jsonl::Value;
    server::Client client(common.server);

    const Value sub = client.request(req);
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

    if (streamProgress) {
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

int
cmdServerCampaign(const CommonArgs &common, const Netlist &net,
                  const CampaignFlags &flags)
{
    using server::jsonl::Object;
    using server::jsonl::Value;
    Object cfg;
    cfg.emplace_back("max_patterns", Value(flags.opts.maxPatterns));
    cfg.emplace_back("seed", Value(flags.opts.seed));
    cfg.emplace_back("keep_unsafe",
                     Value(flags.opts.keepUnsafeExamples));
    cfg.emplace_back("check_alternating",
                     Value(flags.opts.checkAlternating));
    cfg.emplace_back("lanes", Value(flags.opts.lanes));
    cfg.emplace_back("simd",
                     Value(sim::simdTargetName(flags.opts.simd)));
    if (flags.serverShards > 0)
        cfg.emplace_back("shards", Value(flags.serverShards));
    Object req;
    req.emplace_back("op", Value("submit"));
    req.emplace_back("kind", Value("comb"));
    req.emplace_back("client", Value(common.client));
    req.emplace_back("priority", Value(common.priority));
    req.emplace_back("circuit", Value(writeNetlistToString(net)));
    req.emplace_back("format", Value("scal"));
    req.emplace_back("config", Value(std::move(cfg)));
    return submitAndPrint(common, Value(std::move(req)),
                          flags.opts.progressInterval.count() > 0);
}

int
cmdServerSeqCampaign(const CommonArgs &common, const Netlist &net,
                     const SeqCampaignFlags &flags)
{
    using server::jsonl::Object;
    using server::jsonl::Value;
    Object cfg;
    cfg.emplace_back("symbols", Value(flags.opts.symbols));
    cfg.emplace_back("seed", Value(flags.opts.seed));
    cfg.emplace_back("lanes", Value(flags.opts.lanes));
    cfg.emplace_back("simd",
                     Value(sim::simdTargetName(flags.opts.simd)));
    cfg.emplace_back("drop", Value(flags.opts.dropDetected));
    cfg.emplace_back("window",
                     Value(std::to_string(flags.opts.faultStart) + ":" +
                           std::to_string(flags.opts.faultEnd)));
    cfg.emplace_back("seq_fault_batch", Value(flags.opts.faultBatch));
    cfg.emplace_back("seq_dominance", Value(flags.opts.seqDominance));
    cfg.emplace_back("phi", Value(flags.phiName));
    cfg.emplace_back("hold", indexListValue(flags.spec.holdInputs));
    cfg.emplace_back("data", indexListValue(flags.spec.dataOutputs));
    cfg.emplace_back("alt", indexListValue(flags.spec.altOutputs));
    cfg.emplace_back("code_pairs",
                     indexListValue(flags.spec.codePairs));
    if (flags.serverShards > 0)
        cfg.emplace_back("shards", Value(flags.serverShards));
    Object req;
    req.emplace_back("op", Value("submit"));
    req.emplace_back("kind", Value("seq"));
    req.emplace_back("client", Value(common.client));
    req.emplace_back("priority", Value(common.priority));
    req.emplace_back("circuit", Value(writeNetlistToString(net)));
    req.emplace_back("format", Value("scal"));
    req.emplace_back("config", Value(std::move(cfg)));
    return submitAndPrint(common, Value(std::move(req)),
                          flags.opts.progressInterval.count() > 0);
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

    if (kind == "comb") {
        const Netlist net = load(common);
        const fault::CampaignResult res =
            fault::mergeCampaignPartials(net, partials, files);
        return printCampaignResult(net, res, json, verbose,
                                   verdictOnly);
    }
    if (kind == "seq") {
        const Netlist net = load(common);
        const fault::SeqCampaignResult res =
            fault::mergeSeqCampaignPartials(net, partials, files);
        return printSeqCampaignResult(net, res, json, verdictOnly);
    }
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
        int op = -1;
        for (int i = 0; i < scal::system::kNumAluOps; ++i)
            if (opName ==
                scal::system::aluOpName(
                    static_cast<scal::system::AluOp>(i)))
                op = i;
        if (op < 0)
            throw std::runtime_error("merge: unknown ALU op '" +
                                     opName + "' in " + files.front());
        const bool checked = field("checked") == "1";
        const scal::system::SystemCampaignResult res =
            scal::system::mergeSystemPartials(
                static_cast<scal::system::AluOp>(op), checked, partials,
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
    namespace fs = std::filesystem;
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
            shards = static_cast<int>(
                checkedLong("--shards", value("--shards")));
        else if (arg == "--kind")
            kind = value("--kind");
        else if (arg == "--workdir")
            workdir = value("--workdir");
        else if (arg == "--checkpoint-every")
            checkpointEvery = static_cast<int>(checkedLong(
                "--checkpoint-every", value("--checkpoint-every")));
        else if (arg == "--max-restarts")
            maxRestarts = static_cast<int>(
                checkedLong("--max-restarts", value("--max-restarts")));
        else if (arg == "--test-kill")
            testKill = static_cast<int>(
                checkedLong("--test-kill", value("--test-kill")));
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
    if (shards < 1 || shards > 4096)
        throw std::runtime_error("shard-run needs --shards N (1..4096)");
    if (kind != "comb" && kind != "seq")
        throw std::runtime_error("--kind needs comb|seq, got '" + kind +
                                 "'");

    // Re-parse the forwarded flags with the real campaign parsers so
    // bad flags fail here, not inside N forked workers, and so the
    // worker argv can be re-serialized from the canonical options.
    std::vector<char *> fargv;
    fargv.reserve(fwd.size());
    for (std::string &s : fwd)
        fargv.push_back(s.data());
    const int nf = static_cast<int>(fargv.size());

    const Netlist net = load(common);
    if (workdir.empty())
        workdir = "scal-shard-run";
    fs::create_directories(workdir);
    const std::string circuitPath =
        (fs::path(workdir) / "circuit.scal").string();
    {
        std::ofstream os(circuitPath);
        writeNetlist(os, net);
        if (!os)
            throw std::runtime_error("cannot write " + circuitPath);
    }

    std::vector<std::string> workerFlags;
    std::string workerCmd;
    if (kind == "comb") {
        const CampaignFlags flags = parseCampaignFlags(nf, fargv.data(), 0);
        workerCmd = "campaign";
        workerFlags = fault::campaignWorkerArgs(flags.opts);
    } else {
        const SeqCampaignFlags flags =
            parseSeqCampaignFlags(nf, fargv.data(), 0);
        workerCmd = "seq-campaign";
        workerFlags = fault::seqCampaignWorkerArgs(
            flags.opts, resolvedSeqSpec(net, flags));
    }

    const std::string exe = selfExePath(argv0);
    std::vector<engine::WorkerSpec> workers;
    std::vector<std::string> partialPaths;
    for (int k = 0; k < shards; ++k) {
        engine::WorkerSpec w;
        const std::string tag = std::to_string(k + 1);
        const std::string partial =
            (fs::path(workdir) / ("part-" + tag + ".snp")).string();
        w.checkpointPath =
            (fs::path(workdir) / ("ckpt-" + tag + ".snp")).string();
        w.argv = {exe,        workerCmd, "--circuit",
                  circuitPath, "--format", "scal"};
        w.argv.insert(w.argv.end(), workerFlags.begin(),
                      workerFlags.end());
        w.argv.insert(w.argv.end(),
                      {"--shard", tag + "/" + std::to_string(shards),
                       "--partial", partial, "--checkpoint",
                       w.checkpointPath, "--checkpoint-every",
                       std::to_string(checkpointEvery)});
        partialPaths.push_back(partial);
        workers.push_back(std::move(w));
    }

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

    if (kind == "comb") {
        const fault::CampaignResult res =
            fault::mergeCampaignPartials(net, partials, partialPaths);
        return printCampaignResult(net, res, json, verbose, verdictOnly);
    }
    const fault::SeqCampaignResult res =
        fault::mergeSeqCampaignPartials(net, partials, partialPaths);
    return printSeqCampaignResult(net, res, json, verdictOnly);
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
        std::vector<char *> rest;
        rest.reserve(common.rest.size());
        for (std::string &s : common.rest)
            rest.push_back(s.data());
        const int nrest = static_cast<int>(rest.size());

        const Netlist net = load(common);
        if (common.cmd == "analyze")
            return cmdAnalyze(net);
        if (common.cmd == "campaign") {
            CampaignFlags flags =
                parseCampaignFlags(nrest, rest.data(), 0);
            if (!common.server.empty())
                return cmdServerCampaign(common, net, flags);
            std::signal(SIGINT, onInterrupt);
            std::signal(SIGTERM, onInterrupt);
            flags.opts.cancel = &g_cancel;
            return cmdCampaign(net, flags);
        }
        if (common.cmd == "seq-campaign") {
            SeqCampaignFlags flags =
                parseSeqCampaignFlags(nrest, rest.data(), 0);
            if (!common.server.empty())
                return cmdServerSeqCampaign(common, net, flags);
            std::signal(SIGINT, onInterrupt);
            std::signal(SIGTERM, onInterrupt);
            flags.opts.cancel = &g_cancel;
            return cmdSeqCampaign(net, flags);
        }
        if (common.cmd == "tests" && nrest > 0)
            return cmdTests(net, rest[0]);
        if (common.cmd == "repair" && nrest > 0)
            return cmdRepair(net, rest[0],
                             nrest > 1 ? std::stoi(rest[1]) : 4);
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
