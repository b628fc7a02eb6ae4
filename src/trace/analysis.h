/**
 * @file
 * Abstract-capability reconstruction and granularity analysis.
 *
 * Reproduces the paper's section 5.5: record every capability derived
 * during a run, grouped by source, and build the cumulative
 * distribution of bounds sizes (Figure 5).  The headline observations
 * to check against the paper: no capability grants more than a few MiB,
 * ~90% grant less than 1 KiB, stack and malloc capabilities are tightly
 * bounded, and the few broad capabilities all originate in the kernel
 * (startup mappings and syscall returns).
 */

#ifndef CHERI_TRACE_ANALYSIS_H
#define CHERI_TRACE_ANALYSIS_H

#include <array>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace cheri
{

/** Recording TraceSink: stores (source, bounds-length) pairs. */
class CapTraceRecorder : public TraceSink
{
  public:
    struct Event
    {
        DeriveSource source;
        u64 length;
        u64 base;
    };

    void
    derive(DeriveSource source, const Capability &cap) override
    {
        events.push_back({source, cap.length(), cap.base()});
    }

    const std::vector<Event> &all() const { return events; }
    u64 count() const { return events.size(); }
    void clear() { events.clear(); }

  private:
    std::vector<Event> events;
};

/** Cumulative capability counts by size, per source (Figure 5). */
class GranularityCdf
{
  public:
    /** Size buckets: powers of two from 2^2 to 2^maxShift. */
    static constexpr unsigned minShift = 2;
    static constexpr unsigned maxShift = 26;
    /** Figure 5's rows step this many powers of two; its columns list
     *  these sources, in this order. */
    static constexpr unsigned shiftStep = 2;
    static constexpr std::array<DeriveSource, 7> sources = {
        DeriveSource::Stack, DeriveSource::Malloc, DeriveSource::Exec,
        DeriveSource::GlobRelocs, DeriveSource::Syscall, DeriveSource::Kern,
        DeriveSource::Tls};

    explicit GranularityCdf(const std::vector<CapTraceRecorder::Event> &ev);

    /** Cumulative count of capabilities from @p src with length <=
     *  2^shift. */
    u64 cumulative(DeriveSource src, unsigned shift) const;

    /** Cumulative count over all sources. */
    u64 cumulativeAll(unsigned shift) const;

    /** Total events from @p src. */
    u64 total(DeriveSource src) const;
    u64 totalAll() const;

    /** Largest bounds length seen for @p src (0 if none). */
    u64 maxLength(DeriveSource src) const;
    u64 maxLengthAll() const;

    /** Fraction of all capabilities with length <= @p size. */
    double fractionBelow(u64 size) const;

    /** Render the CDF as an aligned text table (one row per bucket,
     *  one column per source, in the orders above). */
    std::string formatTable() const;

  private:
    std::array<std::vector<u64>, numDeriveSources> lengthsBySource;
};

} // namespace cheri

#endif // CHERI_TRACE_ANALYSIS_H
