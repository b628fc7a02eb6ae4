#include "trace/analysis.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace cheri
{

GranularityCdf::GranularityCdf(
    const std::vector<CapTraceRecorder::Event> &ev)
{
    for (const auto &e : ev) {
        lengthsBySource[static_cast<unsigned>(e.source)].push_back(
            e.length);
    }
    for (auto &v : lengthsBySource)
        std::sort(v.begin(), v.end());
}

u64
GranularityCdf::cumulative(DeriveSource src, unsigned shift) const
{
    const auto &v = lengthsBySource[static_cast<unsigned>(src)];
    u64 limit = u64{1} << shift;
    return static_cast<u64>(
        std::upper_bound(v.begin(), v.end(), limit) - v.begin());
}

u64
GranularityCdf::cumulativeAll(unsigned shift) const
{
    u64 n = 0;
    for (unsigned s = 0; s < numDeriveSources; ++s)
        n += cumulative(static_cast<DeriveSource>(s), shift);
    return n;
}

u64
GranularityCdf::total(DeriveSource src) const
{
    return lengthsBySource[static_cast<unsigned>(src)].size();
}

u64
GranularityCdf::totalAll() const
{
    u64 n = 0;
    for (const auto &v : lengthsBySource)
        n += v.size();
    return n;
}

u64
GranularityCdf::maxLength(DeriveSource src) const
{
    const auto &v = lengthsBySource[static_cast<unsigned>(src)];
    return v.empty() ? 0 : v.back();
}

u64
GranularityCdf::maxLengthAll() const
{
    u64 m = 0;
    for (unsigned s = 0; s < numDeriveSources; ++s)
        m = std::max(m, maxLength(static_cast<DeriveSource>(s)));
    return m;
}

double
GranularityCdf::fractionBelow(u64 size) const
{
    u64 total = totalAll();
    if (total == 0)
        return 0.0;
    u64 n = 0;
    for (const auto &v : lengthsBySource) {
        n += static_cast<u64>(
            std::upper_bound(v.begin(), v.end(), size) - v.begin());
    }
    return static_cast<double>(n) / static_cast<double>(total);
}

std::string
GranularityCdf::formatTable() const
{
    std::ostringstream os;
    os << std::setw(10) << "size<=";
    os << std::setw(10) << "all";
    for (DeriveSource s : sources)
        os << std::setw(12) << deriveSourceName(s);
    os << "\n";
    for (unsigned shift = minShift; shift <= maxShift; shift += shiftStep) {
        os << std::setw(8) << "2^" + std::to_string(shift);
        os << std::setw(12) << cumulativeAll(shift);
        for (DeriveSource s : sources)
            os << std::setw(12) << cumulative(s, shift);
        os << "\n";
    }
    return os.str();
}

} // namespace cheri
