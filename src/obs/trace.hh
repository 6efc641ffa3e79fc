/**
 * @file
 * Structured tracing: scoped spans recorded into per-thread ring
 * buffers and exported as Chrome-trace JSON (loadable in Perfetto /
 * chrome://tracing). A span is one complete "X" event — name,
 * category, start timestamp, duration, thread id, optional integer
 * argument (the explorer stores the design-point index).
 *
 * Ring buffers are fixed-capacity per thread: when a sweep records
 * more events than fit, the oldest are overwritten and the export
 * reports how many were dropped. Each buffer is written only by its
 * owning thread under a per-thread mutex that the exporter takes
 * when draining — uncontended in steady state, so recording stays
 * O(copy one small struct).
 *
 * Instrument with the DHDL_OBS_SPAN macro (compiles to nothing under
 * -DDHDL_OBS_DISABLE), or call recordSpan() directly when the
 * timestamps already exist — the evaluator reuses the clock reads it
 * takes for its stage counters, so tracing adds no extra clock calls
 * on the hot path.
 */

#ifndef DHDL_OBS_TRACE_HH
#define DHDL_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/obs.hh"

namespace dhdl::obs {

/** Max bytes (incl. NUL) of a span name / category kept per event. */
constexpr size_t kTraceNameCap = 48;
constexpr size_t kTraceCatCap = 16;

/** One completed span in a ring buffer (POD, no heap). */
struct TraceEvent {
    char name[kTraceNameCap];
    char cat[kTraceCatCap];
    uint64_t ts = 0;  //!< Start, trace-clock micros.
    uint64_t dur = 0; //!< Duration, micros.
    int64_t arg = -1; //!< Rendered as args:{"i":...} when >= 0.
};

/**
 * Record a completed span with caller-supplied timestamps. No-op
 * while disabled. `name`/`cat` are truncated to the event caps.
 */
void recordSpan(const char* cat, const char* name, uint64_t tsMicros,
                uint64_t durMicros, int64_t arg = -1);

/** RAII span: times its own scope on the trace clock. */
class TraceSpan
{
  public:
    TraceSpan(const char* cat, const char* name)
        : cat_(cat), name_(name),
          start_(enabled() ? nowMicros() : kInactive)
    {
    }

    /** Dynamic names (pass names): pointer must outlive the span. */
    TraceSpan(const char* cat, const std::string& name)
        : TraceSpan(cat, name.c_str())
    {
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /** Attach the integer argument emitted with the event. */
    void setArg(int64_t arg) { arg_ = arg; }

    ~TraceSpan()
    {
        if (start_ != kInactive)
            recordSpan(cat_, name_, start_, nowMicros() - start_,
                       arg_);
    }

  private:
    static constexpr uint64_t kInactive = ~uint64_t(0);

    const char* cat_;
    const char* name_;
    uint64_t start_;
    int64_t arg_ = -1;
};

/** Occupancy/drop accounting across all thread ring buffers. */
struct TraceStats {
    uint64_t recorded = 0; //!< Events ever recorded.
    uint64_t retained = 0; //!< Events currently held.
    uint64_t dropped = 0;  //!< Overwritten by ring wraparound.
};

TraceStats traceStats();

/**
 * Ring capacity (events per thread) for buffers created after the
 * call; existing buffers keep their size. Also settable via the
 * DHDL_OBS_RING environment variable. Values are clamped to
 * [64, 1<<20]. Default: 16384.
 */
void setRingCapacity(size_t events);

/**
 * Export everything recorded so far as one Chrome-trace JSON object
 * ({"displayTimeUnit":"ms","traceEvents":[...]}), with thread-name
 * metadata events so Perfetto labels rows "worker-N". Events are
 * emitted per thread in timestamp order.
 */
void writeChromeTrace(std::ostream& os);

/** Drop all recorded events (buffers stay allocated). Tests only. */
void resetTrace();

} // namespace dhdl::obs

// Scoped-span convenience macro; strips to nothing when obs is
// compiled out so instrumented hot paths carry zero residue.
#ifndef DHDL_OBS_DISABLE
#define DHDL_OBS_CONCAT_IMPL(a, b) a##b
#define DHDL_OBS_CONCAT(a, b) DHDL_OBS_CONCAT_IMPL(a, b)
#define DHDL_OBS_SPAN(cat, name)                                      \
    ::dhdl::obs::TraceSpan DHDL_OBS_CONCAT(obs_span_, __LINE__)(cat,  \
                                                                name)
#else
#define DHDL_OBS_SPAN(cat, name)                                      \
    do {                                                              \
    } while (0)
#endif

#endif // DHDL_OBS_TRACE_HH
