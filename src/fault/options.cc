#include "fault/options.hh"

#include <algorithm>

#include "sim/simd.hh"
#include "util/number.hh"

namespace scal::fault
{

std::vector<OptionRow>
optionRows(CampaignOptions &o)
{
    using K = OptionKind;
    return {
        {"max_patterns", K::Unsigned, "max_patterns", &o.maxPatterns},
        {"seed", K::Unsigned, "seed", &o.seed},
        {"keep_unsafe", K::Unsigned, "keep_unsafe", &o.keepUnsafeExamples},
        {"check_alternating", K::Bool, "check_alternating",
         &o.checkAlternating},
        // Verdicts are bit-identical at every lane width and target.
        {"lanes", K::Unsigned, nullptr, &o.lanes},
        {"simd", K::Simd, nullptr, &o.simd},
    };
}

std::vector<OptionRow>
optionRows(SeqCampaignConfig &c)
{
    using K = OptionKind;
    return {
        {"symbols", K::Signed, "symbols", &c.opts.symbols},
        {"seed", K::Unsigned, "seed", &c.opts.seed},
        // The number of random streams: part of the experiment, unlike
        // the combinational lane width.
        {"lanes", K::Unsigned, "lanes", &c.opts.lanes},
        {"window", K::Window, "window",
         std::pair(&c.opts.faultStart, &c.opts.faultEnd)},
        {"drop", K::Bool, "drop", &c.opts.dropDetected},
        // φ by name or by index set one field, which the index spells.
        {"phi", K::InputName, nullptr, &c.spec.phiInput},
        {"phi_index", K::Signed, "phi", &c.spec.phiInput},
        {"hold", K::IndexSet, "hold", &c.spec.holdInputs},
        {"data", K::IndexSet, "data", &c.spec.dataOutputs},
        {"alt", K::IndexSet, "alt", &c.spec.altOutputs},
        {"code_pairs", K::IndexList, "pairs", &c.spec.codePairs},
        // Kernel choice and work savings: verdict-neutral.
        {"simd", K::Simd, nullptr, &c.opts.simd},
        // On means forced on, even on the hardened realizations the
        // campaign skips the pass for by default.
        {"seq_dominance", K::Bool, nullptr,
         std::pair(&c.opts.seqDominance, &c.opts.seqDominanceForce)},
    };
}

namespace
{

std::string
flagName(const OptionRow &row)
{
    std::string flag = std::string("--") + row.name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

int
inputIndex(const netlist::Netlist &net, const std::string &name)
{
    for (int i = 0; i < net.numInputs(); ++i)
        if (net.gate(net.inputs()[i]).name == name)
            return i;
    return -1;
}

} // namespace

std::optional<std::string>
optionText(const OptionRow &row)
{
    if (row.kind == OptionKind::InputName)
        return std::nullopt;
    return std::visit(
        [](auto f) -> std::optional<std::string> {
            using F = decltype(f);
            if constexpr (std::is_same_v<F, std::pair<long *, long *>>) {
                return std::to_string(*f.first) + ":" +
                       std::to_string(*f.second);
            } else if constexpr (std::is_same_v<F,
                                                std::pair<bool *, bool *>>) {
                if (*f.first && !*f.second)
                    return std::nullopt; // the unforced default
                return *f.first ? "1" : "0";
            } else if constexpr (std::is_same_v<F, bool *>) {
                return *f ? "1" : "0";
            } else if constexpr (std::is_same_v<F, sim::SimdTarget *>) {
                return sim::simdTargetName(*f);
            } else if constexpr (std::is_same_v<F, std::vector<int> *>) {
                std::string s;
                for (std::size_t i = 0; i < f->size(); ++i)
                    s += (i ? "," : "") + std::to_string((*f)[i]);
                return s;
            } else {
                return std::to_string(*f);
            }
        },
        row.field);
}

void
setOption(const OptionRow &row, const std::string &text,
          const netlist::Netlist &net, const std::string &label)
{
    const auto needs = [&](const char *what) {
        return std::runtime_error(label + " needs " + what + ", got '" +
                                  text + "'");
    };
    std::visit(
        [&](auto f) {
            using F = decltype(f);
            using V = std::remove_pointer_t<F>;
            if constexpr (std::is_same_v<F, std::pair<long *, long *>>) {
                const std::size_t colon = text.find(':');
                if (colon == std::string::npos)
                    throw needs("START:END in periods");
                *f.first = util::checkedNumber<long>(label, text.substr(0, colon));
                *f.second = util::checkedNumber<long>(label, text.substr(colon + 1));
            } else if constexpr (std::is_same_v<F,
                                                std::pair<bool *, bool *>>) {
                *f.first = *f.second = text == "1";
            } else if constexpr (std::is_same_v<F, bool *>) {
                *f = text == "1";
            } else if constexpr (std::is_same_v<F, sim::SimdTarget *>) {
                if (!sim::parseSimdTarget(text.c_str(), f))
                    throw needs("auto|portable|avx2|avx512");
            } else if constexpr (std::is_same_v<F, std::vector<int> *>) {
                f->clear();
                for (std::size_t pos = 0; pos < text.size();) {
                    const std::size_t comma =
                        std::min(text.find(',', pos), text.size());
                    f->push_back(util::checkedNumber<int>(
                        label, text.substr(pos, comma - pos)));
                    pos = comma + 1;
                }
            } else if (row.kind == OptionKind::InputName) {
                const int index = inputIndex(net, text);
                if (index < 0)
                    throw std::runtime_error(label + ": no input named '" +
                                             text + "'");
                *f = static_cast<V>(index);
            } else {
                if (row.kind == OptionKind::Unsigned)
                    util::checkedNumber<std::uint64_t>(label, text); // no sign
                *f = util::checkedNumber<V>(label, text);
            }
        },
        row.field);
}

bool
applyOptionFlag(const std::vector<OptionRow> &rows,
                const std::vector<std::string> &args, std::size_t *i,
                const netlist::Netlist &net)
{
    const std::string &arg = args[*i];
    for (const OptionRow &row : rows) {
        const std::string flag = flagName(row);
        if (row.kind == OptionKind::Bool &&
            (arg == flag || arg == "--no-" + flag.substr(2))) {
            setOption(row, arg == flag ? "1" : "0", net, flag);
            return true;
        }
        if (row.kind == OptionKind::Bool || arg != flag)
            continue;
        if (++*i >= args.size())
            throw std::runtime_error(flag + " needs a value");
        setOption(row, args[*i], net, flag);
        return true;
    }
    return false;
}

std::vector<std::string>
optionArgs(const std::vector<OptionRow> &rows)
{
    std::vector<std::string> args;
    for (const OptionRow &row : rows) {
        const std::optional<std::string> text = optionText(row);
        if (!text)
            continue;
        const std::string flag = flagName(row);
        if (row.kind != OptionKind::Bool)
            args.insert(args.end(), {flag, *text});
        else
            args.push_back(*text == "1" ? flag : "--no-" + flag.substr(2));
    }
    return args;
}

std::string
optionKey(const char *tag, const std::vector<OptionRow> &rows)
{
    std::string key = tag;
    for (OptionRow row : rows) {
        std::vector<int> set;
        if (row.kind == OptionKind::IndexSet) {
            // Alarm and wrong-word folds are order-independent.
            set = *std::get<std::vector<int> *>(row.field);
            std::sort(set.begin(), set.end());
            set.erase(std::unique(set.begin(), set.end()), set.end());
            row.field = &set;
        }
        if (const std::optional<std::string> text = optionText(row);
            row.key && text)
            key += std::string(";") + row.key + "=" + *text;
    }
    return key;
}

SeqCampaignConfig
defaultSeqConfig(const netlist::Netlist &net)
{
    SeqCampaignConfig cfg;
    cfg.spec.phiInput = inputIndex(net, "phi");
    return cfg;
}

} // namespace scal::fault
