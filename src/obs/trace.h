/**
 * @file
 * Event tracing for the flight recorder: Chrome trace-event spans and
 * instants over the fleet's virtual clock.
 *
 * Events carry fleet-simulation timestamps (seconds of simulated
 * time). They are recorded only from the single-threaded
 * discrete-event loop, so their insertion order — and therefore the
 * exported JSON — is deterministic at any solver thread count.
 *
 * The export is standard Chrome trace-event JSON ("traceEvents" array
 * of ph = X/i/C/b/n/e/M records), loadable in Perfetto or
 * chrome://tracing. All methods are thread-safe.
 */

#ifndef SCAR_OBS_TRACE_H
#define SCAR_OBS_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace scar
{
namespace obs
{

/** One "args" entry of a trace event. */
struct TraceArg
{
    std::string key;
    std::string value; ///< pre-rendered JSON value payload
    bool quoted = false; ///< true renders value as a JSON string
};

/** A string-valued trace-event argument. */
TraceArg argText(std::string key, std::string value);

/** A numeric trace-event argument (shortest round-trip formatting). */
TraceArg argNum(std::string key, double value);

/** An integer trace-event argument. */
TraceArg argInt(std::string key, long long value);

/** A boolean trace-event argument. */
TraceArg argBool(std::string key, bool value);

/** Thread-safe trace-event recorder over the fleet's virtual clock. */
class TraceRecorder
{
  public:
    /** Trace pid used for virtual-clock (fleet) events. */
    static constexpr int kVirtualPid = 1;

    /** A complete span [startSec, startSec + durSec] in virtual time. */
    void completeVirtual(int tid, std::string name, std::string cat,
                         double startSec, double durSec,
                         std::vector<TraceArg> args = {});

    /** A thread-scoped instant at `atSec` in virtual time. */
    void instantVirtual(int tid, std::string name, std::string cat,
                        double atSec, std::vector<TraceArg> args = {});

    /** A counter sample (ph = C) at `atSec` in virtual time. */
    void counterVirtual(const std::string& name, double atSec,
                        double value);

    /** Opens an async span (ph = b) keyed by `id` in virtual time. */
    void asyncBeginVirtual(std::uint64_t id, std::string name,
                           std::string cat, double atSec,
                           std::vector<TraceArg> args = {});

    /** An instant (ph = n) inside the async span keyed by `id`. */
    void asyncInstantVirtual(std::uint64_t id, std::string name,
                             std::string cat, double atSec,
                             std::vector<TraceArg> args = {});

    /** Closes the async span (ph = e) keyed by `id`. */
    void asyncEndVirtual(std::uint64_t id, std::string name,
                         std::string cat, double atSec,
                         std::vector<TraceArg> args = {});

    /** Names a virtual-domain thread track (ph = M metadata). */
    void setThreadName(int tid, std::string name);

    /** Number of recorded events (metadata names excluded). */
    std::size_t size() const;

    /** Drops all recorded events and track names. */
    void clear();

    /** Renders Chrome trace-event JSON. */
    std::string toJson() const;

    /** Writes toJson() to a file; returns false on I/O failure. */
    bool writeJson(const std::string& path) const;

  private:
    struct Event
    {
        char ph = 'X';
        bool hasId = false;
        int tid = 0;
        std::uint64_t id = 0;
        double tsUs = 0.0;
        double durUs = 0.0;
        std::string name;
        std::string cat;
        std::vector<TraceArg> args;
    };

    void push(Event event);

    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::map<int, std::string> threadNames_;
};

} // namespace obs
} // namespace scar

#endif // SCAR_OBS_TRACE_H
