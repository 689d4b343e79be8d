/**
 * @file
 * The one self-registering, spec-keyed factory registry of the tree.
 * Every pluggable mechanism is named by a spec string (common/spec.h)
 * and built through an instance of this template:
 *
 *     SpecRegistry<sim::Policy, const sim::SocConfig &>  exp::PolicyRegistry
 *     SpecRegistry<mem::MemoryModel, const sim::SocConfig &>
 *                                                        mem::MemoryModelRegistry
 *     SpecRegistry<cluster::Dispatcher, int, std::uint64_t>
 *                                                        cluster::DispatcherRegistry
 *     SpecRegistry<serve::AdmissionPolicy>               serve::AdmissionRegistry
 *
 * `Product` is what a factory builds and `Ctx...` the context it is
 * built against (a policy against its SoC configuration, a dispatcher
 * against a fleet size and seed); every factory takes the spec last.
 * The template owns registration (name validation, duplicate
 * detection), name lookup with did-you-mean suggestions,
 * parameter-key validation against the declared schema, `make`, the
 * `--list-*` catalogue, and `Registrar` link-time self-registration.
 * A subsystem contributes only its alias, its built-ins, and one
 * explicit specialization of `instance()` — declared in its header so
 * every translation unit sees it — that names the registry's nouns
 * and flags, registers the built-ins, and decides how deep
 * `validate()` goes: structural (policies, memory models) or a trial
 * build against a fixed context (dispatchers, admission).
 */

#ifndef MOCA_COMMON_SPEC_REGISTRY_H
#define MOCA_COMMON_SPEC_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/spec.h"
#include "common/text.h"

namespace moca {

template <typename Product, typename... Ctx>
class SpecRegistry
{
  public:
    /** Everything the registry knows about one entry. */
    struct Info
    {
        std::string name;
        std::string description;
        std::vector<SpecParam> params;

        /**
         * Build the product against `ctx...` with the spec's
         * parameters applied.  Called with an already-validated spec
         * (name matches, every param key is declared); malformed
         * parameter *values* are fatal here.  Must be thread-safe:
         * sweep workers build concurrently.
         */
        std::function<std::unique_ptr<Product>(Ctx..., const Spec &)>
            factory;
    };

    /** The context validate() trial-builds against; unset keeps
     *  validation structural. */
    using TrialContext = std::optional<std::tuple<std::decay_t<Ctx>...>>;

    /**
     * The process-wide registry.  Each subsystem defines one explicit
     * specialization that constructs it and registers the built-ins
     * on first use (iteration order is registration order).
     */
    static SpecRegistry &instance();

    /**
     * @param noun        singular noun for messages ("policy").
     * @param noun_plural plural noun ("policies").
     * @param list_flag   the catalogue flag ("list-policies").
     * @param select_flag the selection flag ("policy").
     * @param trial       context validate() trial-builds against.
     */
    SpecRegistry(const char *noun, const char *noun_plural,
                 const char *list_flag, const char *select_flag,
                 TrialContext trial = std::nullopt)
        : noun_(noun), nounPlural_(noun_plural), listFlag_(list_flag),
          selectFlag_(select_flag), trial_(std::move(trial))
    {
    }

    /** Register an entry; fatal on a duplicate or malformed name. */
    void add(Info info)
    {
        if (info.name.empty())
            fatal("cannot register a %s with an empty name", noun_);
        if (info.name.find(':') != std::string::npos ||
            info.name.find(',') != std::string::npos ||
            info.name.find('=') != std::string::npos)
            fatal("%s name '%s' may not contain ':', ',' or '='",
                  noun_, info.name.c_str());
        if (!info.factory)
            fatal("%s '%s' registered without a factory", noun_,
                  info.name.c_str());
        if (byName_.count(info.name) > 0)
            fatal("%s '%s' is already registered", noun_,
                  info.name.c_str());
        byName_[info.name] = infos_.size();
        infos_.push_back(std::move(info));
    }

    bool contains(const std::string &name) const
    {
        return byName_.count(name) > 0;
    }

    /** Registered names in registration order. */
    std::vector<std::string> names() const
    {
        std::vector<std::string> out;
        out.reserve(infos_.size());
        for (const auto &i : infos_)
            out.push_back(i.name);
        return out;
    }

    /** Metadata for `name`; fatal (with did-you-mean) when unknown. */
    const Info &info(const std::string &name) const
    {
        auto it = byName_.find(name);
        if (it == byName_.end())
            unknownName(name);
        return infos_[it->second];
    }

    /**
     * Parse, validate, and build from a spec; unknown names and
     * undeclared parameters are fatal with actionable messages.
     */
    std::unique_ptr<Product> make(const Spec &spec, Ctx... ctx) const
    {
        return checkSpec(spec).factory(ctx..., spec);
    }
    std::unique_ptr<Product> make(const std::string &spec,
                                  Ctx... ctx) const
    {
        return make(Spec::parse(spec, noun_), ctx...);
    }

    /**
     * Validate a spec before any simulation work starts: grammar,
     * name (did-you-mean on typos), and declared parameter keys —
     * plus parameter *values*, by a trial build, when the registry
     * has a trial context.  Fatal with actionable messages.
     */
    void validate(const std::string &spec) const
    {
        const Spec parsed = Spec::parse(spec, noun_);
        if (!trial_) {
            (void)checkSpec(parsed);
            return;
        }
        std::apply(
            [&](const auto &...ctx) { (void)make(parsed, ctx...); },
            *trial_);
    }

    /** Human-readable catalogue (--list-* output). */
    std::string listText() const
    {
        std::string out = strprintf(
            "registered %s (spec grammar: name[:key=value,...]):\n",
            nounPlural_);
        for (const auto &i : infos_) {
            out += "  " + i.name + " — " + i.description + "\n";
            for (const auto &param : i.params)
                out += strprintf(
                    "      %-20s %-13s default %-7s %s\n",
                    param.key.c_str(), param.type.c_str(),
                    param.defaultValue.c_str(),
                    param.description.c_str());
        }
        return out;
    }

    /** The catalogue flag, without dashes ("list-policies"). */
    const char *listFlag() const { return listFlag_; }
    /** The selection flag, without dashes ("policy"). */
    const char *selectFlag() const { return selectFlag_; }

  private:
    /** Name + declared-parameter-key validation shared by make() and
     *  validate(). */
    const Info &checkSpec(const Spec &spec) const
    {
        const Info &i = info(spec.name);
        for (const auto &[key, value] : spec.params) {
            (void)value;
            bool declared = false;
            for (const auto &p : i.params)
                if (p.key == key) {
                    declared = true;
                    break;
                }
            if (!declared) {
                std::string keys;
                for (const auto &p : i.params) {
                    if (!keys.empty())
                        keys += ", ";
                    keys += p.key;
                }
                fatal("%s '%s' has no parameter '%s'; declared "
                      "parameters: %s",
                      noun_, spec.name.c_str(), key.c_str(),
                      keys.empty() ? "(none)" : keys.c_str());
            }
        }
        return i;
    }

    [[noreturn]] void unknownName(const std::string &name) const
    {
        // Did-you-mean: the registered name closest in edit distance,
        // suggested only when it is plausibly a typo.
        const std::string nearest = nearestName(name, names());
        const bool suggest = !nearest.empty();
        fatal("unknown %s '%s'%s%s%s; known %s: %s "
              "(run with --%s for parameters)",
              noun_, name.c_str(), suggest ? " (did you mean '" : "",
              suggest ? nearest.c_str() : "", suggest ? "'?)" : "",
              nounPlural_, joinNames(names()).c_str(), listFlag_);
    }

    const char *noun_;
    const char *nounPlural_;
    const char *listFlag_;
    const char *selectFlag_;
    TrialContext trial_;
    std::vector<Info> infos_;
    std::map<std::string, std::size_t> byName_;
};

/**
 * Apply a validated spec's parameters to a config struct through its
 * `bool applyParam(key, value)` surface.  The registry has already
 * checked every key against the declared schema, so a key applyParam
 * does not handle is a schema / applyParam mismatch: a programming
 * error in the registration of that `noun` ("policy").
 */
template <typename Config>
Config
configFromSpec(const Spec &spec, const char *noun)
{
    Config cfg;
    for (const auto &[key, value] : spec.params) {
        if (!cfg.applyParam(key, value))
            panic("%s %s declares parameter '%s' but its "
                  "applyParam does not handle it",
                  noun, spec.name.c_str(), key.c_str());
    }
    return cfg;
}

/**
 * Link-time self-registration hook for any registry:
 *
 *     static exp::PolicyRegistrar reg({"mine", "...", {...}, factory});
 */
template <typename Registry>
struct Registrar
{
    explicit Registrar(typename Registry::Info info)
    {
        Registry::instance().add(std::move(info));
    }
};

} // namespace moca

#endif // MOCA_COMMON_SPEC_REGISTRY_H
