/**
 * @file
 * The unified value-or-error result of every routing entry point.
 *
 * Before this header the stack had four ways to say "it worked":
 * SelfRoutingBenes returned a RouteResult with a success bool,
 * permutePayloads an optional, PermutationNetwork::tryRoute a bare
 * bool, and the Router's plan-and-execute call simply never failed
 * (panicking on internal contradictions). A serving layer that can
 * detect faults, miss deadlines, and shed load needs one structured
 * answer instead: RouteOutcome carries either the routed payload
 * (plus WHICH serving tier produced it) or a RouteError naming the
 * failure class and the suspected switches.
 *
 * The taxonomy is deliberately small and closed:
 *
 *   ok                the payload was routed and tag-verified;
 *   not_in_F          a single self-routed pass cannot realize the
 *                     permutation (Theorem 1 classification, the
 *                     only error a bare fabric can report);
 *   fault_detected    the fabric misrouted and no fallback tier
 *                     produced a verified result;
 *   deadline_exceeded the request's deadline passed before a
 *                     verified result existed;
 *   shed              the service refused the request under load.
 *
 * StuckFault lives here (not in faults.hh) so the error type can
 * name suspect switches without an include cycle; faults.hh
 * re-exports it to its historical users.
 */

#ifndef SRBENES_CORE_ROUTE_OUTCOME_HH
#define SRBENES_CORE_ROUTE_OUTCOME_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hh"

namespace srbenes
{

/** One faulty switch: its state line is stuck at @p stuck_value. */
struct StuckFault
{
    unsigned stage;
    Word switch_index;
    std::uint8_t stuck_value; //!< 0 = stuck straight, 1 = stuck
                              //!< crossed

    bool operator==(const StuckFault &other) const = default;
};

/** Failure classes a routing service can report. */
enum class RouteErrc : std::uint8_t
{
    Ok = 0,
    NotInF,           //!< not realizable by one self-routed pass
    FaultDetected,    //!< misroute observed, no tier recovered
    DeadlineExceeded, //!< deadline passed before a verified result
    Shed,             //!< refused under load (ring full / overload)
};

/** Wire/JSON name: "ok", "not_in_F", "fault_detected", ... */
const char *routeErrcName(RouteErrc e) noexcept;

/**
 * Which rung of the degraded-mode fallback chain produced a result
 * (DESIGN.md §7): the chain walks Primary -> Reroute -> TwoPass and
 * fail-fasts as Failed.
 */
enum class ServeTier : std::uint8_t
{
    Primary = 0, //!< the planned fast path on a believed-healthy fabric
    Reroute,     //!< forced-state pass pinned around suspect switches
    TwoPass,     //!< re-factored two-pass, each pass tag-verified
    Failed,      //!< no tier produced a verified result
};

const char *serveTierName(ServeTier t) noexcept;

/** The structured error half of a RouteOutcome. */
struct RouteError
{
    RouteErrc code = RouteErrc::Ok;
    /** Deepest tier attempted before giving up. */
    ServeTier tier = ServeTier::Failed;
    /**
     * fault_detected only: the behaviorally-equivalent stuck-at
     * candidates the health diagnosis localized (empty when the
     * evidence fits no single-fault hypothesis).
     */
    std::vector<StuckFault> suspects;
    /** Human-readable context for logs. */
    std::string detail;
};

/**
 * Value-or-error: the routed payload in output order plus the tier
 * that served it, or a RouteError. Accessing the wrong half is a
 * caller bug and panics.
 */
class RouteOutcome
{
  public:
    static RouteOutcome
    success(std::vector<Word> payload,
            ServeTier tier = ServeTier::Primary)
    {
        RouteOutcome o;
        o.payload_ = std::move(payload);
        o.err_.code = RouteErrc::Ok;
        o.err_.tier = tier;
        return o;
    }

    static RouteOutcome
    failure(RouteError err)
    {
        RouteOutcome o;
        o.err_ = std::move(err);
        if (o.err_.code == RouteErrc::Ok)
            o.err_.code = RouteErrc::FaultDetected;
        return o;
    }

    bool ok() const noexcept { return err_.code == RouteErrc::Ok; }
    explicit operator bool() const noexcept { return ok(); }

    RouteErrc errc() const noexcept { return err_.code; }
    /** The tier that served (ok) or the deepest tier attempted. */
    ServeTier tier() const noexcept { return err_.tier; }

    /** The routed payload; panics unless ok(). */
    const std::vector<Word> &value() const;
    /** Move the routed payload out; panics unless ok(). */
    std::vector<Word> &&takeValue();
    /** The structured error; panics when ok(). */
    const RouteError &error() const;

  private:
    std::vector<Word> payload_;
    RouteError err_;
};

} // namespace srbenes

#endif // SRBENES_CORE_ROUTE_OUTCOME_HH
