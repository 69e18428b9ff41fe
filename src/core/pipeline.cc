#include "core/pipeline.hh"

#include "common/logging.hh"

namespace srbenes
{

PipelinedBenes::PipelinedBenes(unsigned n,
                               obs::MetricsRegistry *metrics)
    : topo_(n), regs_(topo_.numStages(), Frame(topo_.numLines())),
      full_(topo_.numStages(), 0)
{
    if (metrics) {
        const std::string inst = metrics->uniqueInstance("pipeline");
        ticks_ = &metrics->counter("srbenes_pipeline_ticks_total",
                                   {{"pipeline", inst}});
        injects_ = &metrics->counter("srbenes_pipeline_injects_total",
                                     {{"pipeline", inst}});
        emerges_ = &metrics->counter("srbenes_pipeline_emerges_total",
                                     {{"pipeline", inst}});
        in_flight_ = &metrics->gauge("srbenes_pipeline_in_flight",
                                     {{"pipeline", inst}});
        drain_depth_ = &metrics->histogram(
            "srbenes_pipeline_drain_depth", {{"pipeline", inst}});
    }
}

std::uint64_t
PipelinedBenes::inFlight() const
{
    std::uint64_t depth = pending_.size();
    for (std::uint8_t f : full_)
        depth += f;
    return depth;
}

void
PipelinedBenes::inject(const Permutation &d, std::vector<Word> payloads)
{
    if (d.size() != topo_.numLines())
        fatal("pipeline vector size %zu != N = %llu", d.size(),
              static_cast<unsigned long long>(topo_.numLines()));
    if (payloads.size() != d.size())
        fatal("payload count %zu != N = %zu", payloads.size(), d.size());

    Frame frame;
    if (!spare_.empty()) {
        frame = std::move(spare_.back());
        spare_.pop_back();
    }
    frame.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        frame[i] = Signal{d[i], payloads[i]};
    pending_.push_back(std::move(frame));
    if (injects_) {
        injects_->inc();
        in_flight_->set(static_cast<std::int64_t>(inFlight()));
    }
}

void
PipelinedBenes::exchange(Frame &frame, unsigned s) const
{
    const unsigned b = topo_.controlBit(s);
    for (Word i = 0; i < topo_.switchesPerStage(); ++i)
        if (bit(frame[2 * i].tag, b))
            std::swap(frame[2 * i], frame[2 * i + 1]);
}

std::optional<PipelineOutput>
PipelinedBenes::clockTick()
{
    ++cycles_;

    // A queued vector enters stage 0 at the start of the clock, so
    // stage 0 processes it during this very cycle (latency is
    // exactly the 2n-1 stages). The queued frame's storage goes back
    // to the spare list for the next inject().
    if (!full_[0] && !pending_.empty()) {
        regs_[0].swap(pending_.front());
        spare_.push_back(std::move(pending_.front()));
        pending_.pop_front();
        full_[0] = 1;
    }

    // The last stage's register drains to the outputs.
    std::optional<PipelineOutput> out;
    const unsigned last = topo_.numStages() - 1;
    if (full_[last]) {
        Frame &frame = regs_[last];
        exchange(frame, last);

        PipelineOutput po;
        po.success = true;
        po.output_tags.resize(frame.size());
        po.payloads.resize(frame.size());
        for (Word j = 0; j < frame.size(); ++j) {
            po.output_tags[j] = frame[j].tag;
            po.payloads[j] = frame[j].payload;
            if (frame[j].tag != j)
                po.success = false;
        }
        out = std::move(po);
        full_[last] = 0;
    }

    // Every earlier stage processes its register in place, then
    // latches the result through the fixed wiring into the next
    // stage's register — block moves between two persistent frames,
    // no allocation.
    for (unsigned s = last; s > 0; --s) {
        if (!full_[s - 1])
            continue;
        Frame &cur = regs_[s - 1];
        Frame &next = regs_[s];
        exchange(cur, s - 1);
        topo_.crossBoundary(s - 1, cur, next);
        full_[s] = 1;
        full_[s - 1] = 0;
    }

    if (ticks_) {
        ticks_->inc();
        if (out)
            emerges_->inc();
        in_flight_->set(static_cast<std::int64_t>(inFlight()));
    }
    return out;
}

std::vector<PipelineOutput>
PipelinedBenes::drain()
{
    if (drain_depth_)
        drain_depth_->observe(inFlight());
    std::vector<PipelineOutput> outs;
    while (!drained())
        if (auto out = clockTick())
            outs.push_back(std::move(*out));
    return outs;
}

bool
PipelinedBenes::drained() const
{
    if (!pending_.empty())
        return false;
    for (std::uint8_t f : full_)
        if (f)
            return false;
    return true;
}

} // namespace srbenes
