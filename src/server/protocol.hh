/**
 * @file
 * Request/response vocabulary of the campaign daemon. One request is
 * one JSONL object with an `op` member:
 *
 *   {"op":"submit","kind":"comb|seq|system", ...}   enqueue a campaign
 *   {"op":"status","id":N}        job state snapshot
 *   {"op":"result","id":N}        block until terminal, return verdict
 *   {"op":"cancel","id":N}        cooperative cancellation
 *   {"op":"subscribe","id":N}     ack, then stream progress events
 *   {"op":"list"}                 all jobs this daemon knows
 *   {"op":"stats"}                scheduler, verdict-cache and
 *                                 circuit-memo counters
 *   {"op":"shutdown"}             stop the daemon
 *
 * submit carries the circuit either inline (`circuit`: netlist/bench/
 * blif text, `format` optional) or by path (`circuit_path`), plus
 * `harden` to run the SCAL-hardening pass first, `client`/`priority`
 * for the scheduler, and a `config` object. Its comb and seq keys are
 * the rows of the option tables in fault/options.hh (the CLI flags
 * with underscores for dashes), plus `shards` (0..engine::kMaxShards)
 * for a multi-process run. System keys are `workload` (sum8, fib12,
 * mul5, logicmix, copycheck or arraysum; default sum8), `alu_op`
 * (ADD, SUB, AND, OR, XOR, SHL, SHR or PASSB; default ADD) and
 * `checked` (default true: the SCAL CPU). An unknown config key,
 * workload or op is an error.
 *
 * A server::Server decodes an inline circuit through its memo
 * (server/circuit_memo.hh): a resubmit of the same text, format and
 * harden flag skips the import, the hardening and the content hash.
 * A `circuit_path` is read again on every submit.
 *
 * Every response carries `ok`; failures carry `error` and the
 * 1-based request line number on this connection.
 */

#ifndef SCAL_SERVER_PROTOCOL_HH
#define SCAL_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/options.hh"
#include "server/jsonl.hh"
#include "server/scheduler.hh"

namespace scal::server
{

/**
 * Resolve a submit request into a runnable JobConfig: import (and
 * optionally harden) the circuit, hash it, translate the config
 * object and compute its canonical cache key. Throws
 * std::runtime_error with a field-specific message on bad requests.
 */
JobConfig buildJobConfig(const jsonl::Value &req);

/** The `config` object that spells the values of option table @p rows
 *  (fault::optionRows), which buildJobConfig reads back. */
jsonl::Value configJson(const std::vector<fault::OptionRow> &rows);

jsonl::Value errorResponse(const std::string &msg, std::uint64_t line);
jsonl::Value submitResponse(const SubmitOutcome &out);
/** Job snapshot; @p includePayload adds verdict/tail/error fields. */
jsonl::Value jobResponse(const JobInfo &info, bool includePayload);
jsonl::Value listResponse(const std::vector<JobInfo> &jobs);
jsonl::Value statsResponse(const SchedulerStats &sched,
                           const CacheStats &cache);

} // namespace scal::server

#endif // SCAL_SERVER_PROTOCOL_HH
