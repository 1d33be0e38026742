#include "obs/timeseries.hh"

#include <algorithm>

#include "support/error.hh"

namespace step::obs {

namespace {

/** Fold @p src's samples into @p dst's aggregate. */
void
fold(WindowAgg& dst, const WindowAgg& src)
{
    if (src.count == 0)
        return;
    dst.min = dst.count == 0 ? src.min : std::min(dst.min, src.min);
    dst.max = dst.count == 0 ? src.max : std::max(dst.max, src.max);
    dst.count += src.count;
    dst.sum += src.sum;
}

} // namespace

TimeSeries::TimeSeries(dam::Cycle window_cycles, bool with_histograms)
    : window_(window_cycles), withHists_(with_histograms)
{
    if (window_ == 0)
        throw step::FatalError("TimeSeries window width must be non-zero");
}

void
TimeSeries::record(dam::Cycle at, uint64_t value)
{
    const size_t w = size_t(at / window_);
    if (w >= windows_.size()) {
        windows_.resize(w + 1);
        if (withHists_)
            hists_.resize(w + 1);
    }
    const WindowAgg sample{1, value, value, value};
    fold(windows_[w], sample);
    fold(total_, sample);
    if (withHists_) {
        if (!hists_[w])
            hists_[w] = std::make_unique<LogHistogram>();
        hists_[w]->record(value);
    }
}

void
TimeSeries::merge(const TimeSeries& o)
{
    if (o.window_ != window_)
        throw step::FatalError("TimeSeries merge: window width mismatch");
    if (o.windows_.size() > windows_.size()) {
        windows_.resize(o.windows_.size());
        if (withHists_)
            hists_.resize(o.windows_.size());
    }
    for (size_t w = 0; w < o.windows_.size(); ++w) {
        if (o.windows_[w].count == 0)
            continue;
        fold(windows_[w], o.windows_[w]);
        if (withHists_ && o.withHists_ && o.hists_[w]) {
            if (!hists_[w])
                hists_[w] = std::make_unique<LogHistogram>();
            hists_[w]->merge(*o.hists_[w]);
        }
    }
    fold(total_, o.total_);
}

const WindowAgg&
TimeSeries::window(size_t w) const
{
    static const WindowAgg kEmpty{};
    return w < windows_.size() ? windows_[w] : kEmpty;
}

const LogHistogram*
TimeSeries::windowHistogram(size_t w) const
{
    if (!withHists_ || w >= hists_.size())
        return nullptr;
    return hists_[w].get();
}

void
TimeSeries::forEachWindow(
    const std::function<void(size_t, const WindowAgg&)>& fn) const
{
    for (size_t w = 0; w < windows_.size(); ++w)
        if (windows_[w].count != 0)
            fn(w, windows_[w]);
}

} // namespace step::obs
