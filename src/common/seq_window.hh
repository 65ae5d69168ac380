/**
 * @file
 * A sliding window over a sequence number that only grows, such as one
 * client's transaction serials. The values of [base, end) live in a
 * power-of-two ring indexed by the number itself, so a lookup is one
 * mask, and dropping a settled prefix only moves the base. A number
 * inside the window that was never written reads as a value-initialized
 * T, so T should be small: every hole in the number space costs one.
 *
 * Growth doubles the ring and moves the live values; it invalidates
 * pointers into the window, as any at() past the end may.
 */

#ifndef COMMON_SEQ_WINDOW_HH
#define COMMON_SEQ_WINDOW_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace common {

template <typename T>
class SeqWindow
{
  public:
    std::uint64_t base() const { return base_; }
    std::uint64_t end() const { return end_; }

    /** Value of @p seq, or nullptr outside [base, end). */
    T *
    find(std::uint64_t seq)
    {
        return seq >= base_ && seq < end_ ? &ring_[seq & mask_] : nullptr;
    }
    const T *
    find(std::uint64_t seq) const
    {
        return seq >= base_ && seq < end_ ? &ring_[seq & mask_] : nullptr;
    }

    /** Value of @p seq, which must be >= base: the window grows to
     *  cover it. */
    T &
    at(std::uint64_t seq)
    {
        if (seq >= end_) {
            if (seq - base_ >= ring_.size())
                regrow(seq - base_ + 1);
            end_ = seq + 1;
        }
        return ring_[seq & mask_];
    }

    /** Drop every value below @p seq; a @p seq past the end empties
     *  the window there. */
    void
    advance(std::uint64_t seq)
    {
        for (; base_ < seq && base_ < end_; ++base_)
            ring_[base_ & mask_] = T{};
        base_ = std::max(base_, seq);
        end_ = std::max(end_, base_);
    }

    /** Visit [base, end) in order as fn(seq, value). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t seq = base_; seq < end_; ++seq)
            fn(seq, ring_[seq & mask_]);
    }

  private:
    /** Every ring slot outside [base, end) holds T{}. */
    void
    regrow(std::uint64_t span)
    {
        const std::size_t cap =
            std::bit_ceil(std::max<std::size_t>(span, 16));
        std::vector<T> bigger(cap);
        for (std::uint64_t seq = base_; seq < end_; ++seq)
            bigger[seq & (cap - 1)] = std::move(ring_[seq & mask_]);
        ring_.swap(bigger);
        mask_ = cap - 1;
    }

    std::vector<T> ring_;
    std::uint64_t mask_ = 0;
    std::uint64_t base_ = 0;
    std::uint64_t end_ = 0;
};

} // namespace common

#endif // COMMON_SEQ_WINDOW_HH
