#include "server/protocol.hh"

#include <algorithm>
#include <stdexcept>

#include "engine/shard.hh"
#include "fault/options.hh"
#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/io.hh"
#include "server/circuit_memo.hh"

namespace scal::server
{

namespace
{

std::string
optString(const jsonl::Value &req, const char *key,
          const std::string &dflt = {})
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    if (!v->isString())
        throw std::runtime_error(std::string(key) + " must be a string");
    return v->asString();
}

std::int64_t
optInt(const jsonl::Value &req, const char *key, std::int64_t dflt)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    try {
        return v->asInt64();
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) +
                                 " must be an integer");
    }
}

bool
optBool(const jsonl::Value &req, const char *key, bool dflt)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    try {
        return v->asBool();
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) + " must be a bool");
    }
}

/** The submit's circuit and its content hash, into @p job. An inline
 *  text is taken from @p memo when it holds the text's decode, and
 *  entered there when it decodes; a circuit_path is always read. */
void
loadCircuit(const jsonl::Value &req, CircuitMemo *memo, JobConfig *job)
{
    ingest::Format format = ingest::Format::Auto;
    const std::string fmt = optString(req, "format");
    if (!fmt.empty() && !ingest::parseFormatName(fmt, &format))
        throw std::runtime_error(
            "format must be auto|bench|blif|scal|verilog, got '" + fmt +
            "'");

    const std::string inlineText = optString(req, "circuit");
    const std::string path = optString(req, "circuit_path");
    if (inlineText.empty() == path.empty())
        throw std::runtime_error(
            "submit needs exactly one of circuit (inline text) or "
            "circuit_path");
    const bool harden = optBool(req, "harden", false);
    if (inlineText.empty())
        memo = nullptr;
    if (memo && memo->find(inlineText, format, harden, &job->net,
                           &job->netHash))
        return;
    ingest::ImportedCircuit circ =
        inlineText.empty()
            ? ingest::importCircuit(path, format)
            : ingest::importCircuitFromString(inlineText, format);
    job->net = harden ? ingest::hardenNetlist(circ.net).net
                      : std::move(circ.net);
    job->netHash = netlist::contentHash(job->net);
    if (memo)
        memo->insert(inlineText, format, harden, job->net, job->netHash);
}

const jsonl::Value &
configOf(const jsonl::Value &req)
{
    static const jsonl::Value empty{jsonl::Object{}};
    const jsonl::Value *cfg = req.find("config");
    if (!cfg || cfg->isNull())
        return empty;
    if (!cfg->isObject())
        throw std::runtime_error("config must be an object");
    return *cfg;
}

/**
 * How an option travels in a config object: a bool as a JSON bool,
 * numbers and index lists as JSON numbers (Int) and arrays, and every
 * other kind as a string, each holding the CLI spelling of the value.
 */
jsonl::Value::Kind
jsonKind(fault::OptionKind kind)
{
    switch (kind) {
      case fault::OptionKind::Bool:
        return jsonl::Value::Kind::Bool;
      case fault::OptionKind::Unsigned:
      case fault::OptionKind::Signed:
        return jsonl::Value::Kind::Int;
      case fault::OptionKind::IndexList:
      case fault::OptionKind::IndexSet:
        return jsonl::Value::Kind::Array;
      default:
        return jsonl::Value::Kind::String;
    }
}

/** The `config` member called @p key, spelled as a @p kind CLI
 *  value. */
std::string
jsonText(fault::OptionKind kind, const jsonl::Value &v,
         const std::string &key)
{
    using J = jsonl::Value::Kind;
    const J want = jsonKind(kind);
    const J got =
        v.kind() == J::Uint || v.kind() == J::Double ? J::Int : v.kind();
    if (got != want)
        throw std::runtime_error(
            key + " must be " +
            (want == J::Bool    ? "a bool"
             : want == J::Int   ? "a number"
             : want == J::Array ? "an array of indices"
                                : "a string"));
    if (want == J::Bool)
        return v.asBool() ? "1" : "0";
    const std::string text = v.isString() ? v.asString() : v.dump();
    return want == J::Array ? text.substr(1, text.size() - 2) : text;
}

/**
 * Apply a `config` object through its kind's option @p rows. `shards`
 * is the one run setting a config may carry; any other key that is
 * not a row is an error, so a misspelled option cannot silently run
 * the default.
 */
void
applyConfig(const jsonl::Value &cfg,
            const std::vector<fault::OptionRow> &rows, JobConfig *job)
{
    for (const auto &[key, v] : cfg.asObject()) {
        if (v.isNull())
            continue; // null keeps the default
        if (key == "shards") {
            // Worker processes: verdict-neutral, so not in the key. 0
            // and 1 run inline; more fork one worker per shard at once.
            const std::int64_t n = optInt(cfg, "shards", 0);
            if (n < 0 || n > engine::kMaxShards)
                throw std::runtime_error(
                    "shards must be 0.." +
                    std::to_string(engine::kMaxShards) + ", got " +
                    std::to_string(n));
            job->shards = static_cast<int>(n);
            continue;
        }
        const auto row = std::find_if(
            rows.begin(), rows.end(),
            [&](const fault::OptionRow &r) { return key == r.name; });
        if (row == rows.end())
            throw std::runtime_error("unknown config key '" + key + "'");
        fault::setOption(*row, jsonText(row->kind, v, key), job->net, key);
    }
}

void
buildSystemJob(const jsonl::Value &cfg, JobConfig *job)
{
    for (const auto &member : cfg.asObject())
        if (member.first != "workload" && member.first != "alu_op" &&
            member.first != "checked")
            throw std::runtime_error("unknown config key '" +
                                     member.first + "'");
    const std::string wlName = optString(cfg, "workload", "sum8");
    job->workload = scal::system::findWorkload(wlName);
    job->aluOp =
        scal::system::parseAluOp(optString(cfg, "alu_op", "ADD"));
    job->checkedCpu = optBool(cfg, "checked", true);
    job->netHash = netlist::fnv1a64(wlName);
    job->configKey = scal::system::canonicalSystemConfig(
        wlName, job->aluOp, job->checkedCpu);
}

} // namespace

jsonl::Value
configJson(const std::vector<fault::OptionRow> &rows)
{
    jsonl::Object o;
    for (const fault::OptionRow &row : rows) {
        const std::optional<std::string> text = fault::optionText(row);
        if (!text)
            continue;
        using J = jsonl::Value::Kind;
        const J form = jsonKind(row.kind);
        o.emplace_back(row.name, form == J::Bool ? jsonl::Value(*text == "1")
                                 : form == J::Array
                                     ? jsonl::parse("[" + *text + "]")
                                 : form == J::Int ? jsonl::parse(*text)
                                                  : jsonl::Value(*text));
    }
    return jsonl::Value(std::move(o));
}

JobConfig
buildJobConfig(const jsonl::Value &req)
{
    return buildJobConfig(req, nullptr);
}

JobConfig
buildJobConfig(const jsonl::Value &req, CircuitMemo *memo)
{
    if (!req.isObject())
        throw std::runtime_error("request must be a JSON object");
    JobConfig job;
    job.client = optString(req, "client", "anonymous");
    job.priority =
        static_cast<int>(optInt(req, "priority", 0));
    job.kind = optString(req, "kind");
    const jsonl::Value &cfg = configOf(req);
    if (job.kind == "comb" || job.kind == "seq") {
        loadCircuit(req, memo, &job);
        fault::SeqCampaignConfig seq = fault::defaultSeqConfig(job.net);
        const bool comb = job.kind == "comb";
        applyConfig(cfg,
                    comb ? fault::optionRows(job.copts)
                         : fault::optionRows(seq),
                    &job);
        job.sopts = seq.opts;
        job.spec = seq.spec;
        job.configKey =
            comb ? fault::canonicalCampaignConfig(job.copts)
                 : fault::canonicalSeqCampaignConfig(job.sopts, job.spec);
    } else if (job.kind == "system") {
        buildSystemJob(cfg, &job);
    } else {
        throw std::runtime_error(
            "kind must be comb|seq|system, got '" + job.kind + "'");
    }
    // Rough fair-share weight: bigger circuits charge more, so a
    // client flooding c432 campaigns drains its share faster than one
    // submitting toy nets.
    job.costEstimate =
        1 + static_cast<std::uint64_t>(job.net.numGates()) / 64;
    return job;
}

jsonl::Value
errorResponse(const std::string &msg, std::uint64_t line)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(false));
    o.emplace_back("error", jsonl::Value(msg));
    o.emplace_back("line", jsonl::Value(line));
    return jsonl::Value(std::move(o));
}

jsonl::Value
submitResponse(const SubmitOutcome &out)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(out.accepted));
    if (out.accepted) {
        o.emplace_back("id", jsonl::Value(out.id));
        o.emplace_back("cache_hit", jsonl::Value(out.cacheHit));
        o.emplace_back("state", jsonl::Value(out.cacheHit ? "done"
                                                          : "queued"));
    } else {
        o.emplace_back("rejected", jsonl::Value(out.reason));
    }
    return jsonl::Value(std::move(o));
}

jsonl::Value
jobResponse(const JobInfo &info, bool includePayload)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("id", jsonl::Value(info.id));
    o.emplace_back("client", jsonl::Value(info.client));
    o.emplace_back("kind", jsonl::Value(info.kind));
    o.emplace_back("priority", jsonl::Value(info.priority));
    o.emplace_back("state", jsonl::Value(jobStateName(info.state)));
    o.emplace_back("cache_hit", jsonl::Value(info.cacheHit));
    if (includePayload) {
        if (!info.verdict.empty())
            o.emplace_back("verdict", jsonl::Value(info.verdict));
        if (!info.tail.empty())
            o.emplace_back("tail", jsonl::Value(info.tail));
        if (!info.error.empty())
            o.emplace_back("error", jsonl::Value(info.error));
    }
    return jsonl::Value(std::move(o));
}

jsonl::Value
listResponse(const std::vector<JobInfo> &jobs)
{
    jsonl::Array arr;
    for (const JobInfo &info : jobs) {
        jsonl::Object j;
        j.emplace_back("id", jsonl::Value(info.id));
        j.emplace_back("client", jsonl::Value(info.client));
        j.emplace_back("kind", jsonl::Value(info.kind));
        j.emplace_back("priority", jsonl::Value(info.priority));
        j.emplace_back("state", jsonl::Value(jobStateName(info.state)));
        j.emplace_back("cache_hit", jsonl::Value(info.cacheHit));
        arr.emplace_back(std::move(j));
    }
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("jobs", jsonl::Value(std::move(arr)));
    return jsonl::Value(std::move(o));
}

jsonl::Value
statsResponse(const SchedulerStats &sched, const CacheStats &cache)
{
    jsonl::Object s;
    s.emplace_back("submitted", jsonl::Value(sched.submitted));
    s.emplace_back("completed", jsonl::Value(sched.completed));
    s.emplace_back("failed", jsonl::Value(sched.failed));
    s.emplace_back("cancelled", jsonl::Value(sched.cancelled));
    s.emplace_back("rejected", jsonl::Value(sched.rejected));
    s.emplace_back("queued", jsonl::Value(sched.queued));
    s.emplace_back("running", jsonl::Value(sched.running));

    jsonl::Object c;
    c.emplace_back("hits", jsonl::Value(cache.hits));
    c.emplace_back("disk_hits", jsonl::Value(cache.diskHits));
    c.emplace_back("misses", jsonl::Value(cache.misses));
    c.emplace_back("insertions", jsonl::Value(cache.insertions));
    c.emplace_back("evictions", jsonl::Value(cache.evictions));
    c.emplace_back("entries", jsonl::Value(cache.entries));
    c.emplace_back("resident_bytes", jsonl::Value(cache.residentBytes));

    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("scheduler", jsonl::Value(std::move(s)));
    o.emplace_back("cache", jsonl::Value(std::move(c)));
    return jsonl::Value(std::move(o));
}

jsonl::Value
circuitStatsJson(const CircuitMemo::Stats &stats)
{
    jsonl::Object c;
    c.emplace_back("hits", jsonl::Value(stats.hits));
    c.emplace_back("misses", jsonl::Value(stats.misses));
    c.emplace_back("entries", jsonl::Value(stats.entries));
    c.emplace_back("resident_bytes", jsonl::Value(stats.residentBytes));
    return jsonl::Value(std::move(c));
}

} // namespace scal::server
