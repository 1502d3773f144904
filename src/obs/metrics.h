/**
 * @file
 * Metrics registry for the flight recorder: counters, gauges, and
 * log-bucketed histograms, plus a fixed-interval virtual-time sampler.
 *
 * Instruments are created on first use through the registry and live
 * for the registry's lifetime, so call sites can cache references.
 * Creation is thread-safe; recording into an instrument is not
 * synchronized — the fleet records from its single-threaded event
 * loop, which needs no locking (see src/obs/README.md).
 *
 * Exports are deterministic: instruments emit in name order, and all
 * floating-point values render in shortest-round-trip form.
 */

#ifndef SCAR_OBS_METRICS_H
#define SCAR_OBS_METRICS_H

#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace scar
{
namespace obs
{

/** A monotonically increasing event count. */
class Counter
{
  public:
    void inc(long long delta = 1) { value_ += delta; }
    long long value() const { return value_; }

  private:
    long long value_ = 0;
};

/** A last-write-wins scalar. */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Geometric bucket layout of a Histogram. */
struct HistogramOptions
{
    /** Upper bound of the first bucket (values <= this land there). */
    double firstBucketUpper = 1e-4;
    /** Bucket growth factor; bucket k covers up to first * growth^k. */
    double growth = 2.0;
    /** Bucket count; the last bucket absorbs everything above. */
    int buckets = 40;
};

/**
 * Log-bucketed histogram for latency-like values spanning orders of
 * magnitude. Bucket k covers (upper(k-1), upper(k)] with geometric
 * upper bounds; the first bucket additionally absorbs values below
 * its bound and the last absorbs values above the layout.
 */
class Histogram
{
  public:
    explicit Histogram(HistogramOptions options = HistogramOptions{});

    void record(double value);

    long long count() const { return count_; }
    double sum() const { return sum_; }
    double minValue() const { return min_; }
    double maxValue() const { return max_; }
    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    /** Bucket index a value lands in. */
    int bucketIndex(double value) const;

    /** Inclusive upper bound of bucket k. */
    double bucketUpper(int bucket) const;

    /**
     * Nearest-rank percentile estimate: the upper bound of the bucket
     * holding the p-th percentile observation, clamped to the true
     * observed maximum. p in [0, 100]; 0 with no observations.
     */
    double percentile(double p) const;

    const std::vector<long long>& bucketCounts() const
    {
        return counts_;
    }
    const HistogramOptions& options() const { return options_; }

  private:
    HistogramOptions options_;
    std::vector<long long> counts_;
    long long count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Named instrument store. counter()/gauge()/histogram() create on
 * first use and return stable references; lookups are mutex-guarded.
 */
class MetricsRegistry
{
  public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name,
                         HistogramOptions options = HistogramOptions{});

    /** All instruments as JSON, in name order per kind. */
    std::string toJson() const;

    /** All instruments as kind,name,field,value CSV rows. */
    std::string toCsv() const;

    bool writeJson(const std::string& path) const;
    bool writeCsv(const std::string& path) const;

    /** Drops every instrument. */
    void clear();

  private:
    mutable std::mutex mu_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * Fixed-interval sample-and-hold series over the virtual clock. The
 * fleet's event loop is piecewise-constant between events, so the
 * driver checks due() as simulated time advances and pushes one row
 * per elapsed interval; rows are stamped with the scheduled sample
 * time, not the event time that triggered them.
 */
class TimeSeriesSampler
{
  public:
    explicit TimeSeriesSampler(double intervalSec = 0.05);

    /** Declares the value columns (the time column is implicit). */
    void setColumns(std::vector<std::string> columns);

    double intervalSec() const { return intervalSec_; }

    /** True while the next scheduled sample time is <= nowSec. */
    bool due(double nowSec) const { return nextSec_ <= nowSec; }

    /** The virtual time the next push() will be stamped with. */
    double nextSampleSec() const { return nextSec_; }

    /** Appends one row of column values at the next sample time. */
    void push(const std::vector<double>& values);

    const std::vector<std::string>& columns() const { return columns_; }
    const std::vector<std::vector<double>>& rows() const
    {
        return rows_;
    }

    /** CSV export: timeSec followed by the declared columns. */
    std::string toCsv() const;
    bool writeCsv(const std::string& path) const;

    /** Drops all rows and restarts the sampling clock at zero. */
    void reset();

  private:
    double intervalSec_;
    double nextSec_ = 0.0;
    std::vector<std::string> columns_;
    std::vector<std::vector<double>> rows_; ///< row[0] = timeSec
};

} // namespace obs
} // namespace scar

#endif // SCAR_OBS_METRICS_H
