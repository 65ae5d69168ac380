/**
 * @file
 * One-shot futures and promises for cross-coroutine completion.
 *
 * A Promise<T> is held by the producer (e.g. an RPC transport); any
 * number of consumers may co_await the matching Future<T>. Waiters are
 * resumed as zero-delay events on the simulator, never inline, so a
 * producer's stack cannot re-enter consumer code.
 *
 * Future<T>::withTimeout(d) races the value against a timer and yields
 * std::optional<T> — the building block for RPC timeouts, 2PC decision
 * timeouts, and the cooperative termination protocol.
 *
 * Hot-path design (see PERFORMANCE.md):
 *
 *  - FutureState is allocated from the thread's free-list pool
 *    (sim/pool.hh, shared with coroutine frames) and intrusively
 *    refcounted by StateRef — no std::make_shared control block, no
 *    atomic refcounts (each simulator is single-threaded). Futures
 *    must not outlive their Simulator: resolving schedules onto it.
 *
 *  - Waiters are stored as plain records (handle + TraceContext), one
 *    inline + overflow vector, instead of per-waiter std::function
 *    closures. Resolution schedules each waiter via
 *    scheduleWithContext, so the waiter resumes inside its own
 *    transaction without a context-capturing wrapper.
 *
 *  - withTimeout's double-resume guard is a monotone ticket in the
 *    pooled state instead of a heap std::shared_ptr<bool> per
 *    combinator: each timed wait claims a ticket, and whichever side
 *    (value or timer) removes it from the outstanding set first wins.
 *    Tickets are never reused, so a stale loser event can never
 *    confuse a later waiter. Up to four concurrent timed waiters are
 *    tracked inline; more spill into a vector.
 */

#ifndef SIM_FUTURE_HH
#define SIM_FUTURE_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"

namespace sim {

namespace detail {

template <typename T>
class StateRef;

template <typename T>
struct FutureState
{
    explicit FutureState(Simulator &s) : sim(&s) {}

    /** A suspended consumer: where to resume, under which context,
     *  and (for timed waiters) which pending ticket guards it. */
    struct Waiter
    {
        std::coroutine_handle<> handle;
        common::TraceContext ctx;
        std::uint64_t ticket = 0; ///< 0 = plain (untimed) waiter
    };

    Simulator *sim;
    std::uint32_t refs = 1;
    /** Next timed-wait ticket (monotone, never reused; 0 reserved). */
    std::uint64_t nextTicket = 1;
    /** Outstanding timed waits: inline slots (0 = free) + spillover.
     *  A ticket present = its waiter has not been resumed yet. */
    std::array<std::uint64_t, 4> timedInline{};
    std::vector<std::uint64_t> timedSpill;
    std::optional<T> value;
    /** First waiter inline — the overwhelmingly common case is exactly
     *  one consumer — spillover in a vector. */
    Waiter first;
    std::vector<Waiter> rest;

    bool resolved() const { return value.has_value(); }

    void
    addWaiter(Waiter w)
    {
        if (!first.handle)
            first = w;
        else
            rest.push_back(w);
    }

    /** Register a new timed wait; returns its (never reused) ticket. */
    std::uint64_t
    claimTicket()
    {
        const std::uint64_t ticket = nextTicket++;
        for (std::uint64_t &slot : timedInline) {
            if (slot == 0) {
                slot = ticket;
                return ticket;
            }
        }
        timedSpill.push_back(ticket);
        return ticket;
    }

    /** Remove @p ticket from the outstanding set. Returns true if it
     *  was present — i.e. the caller won the value-vs-timer race and
     *  should resume the waiter. */
    bool
    settleTicket(std::uint64_t ticket)
    {
        for (std::uint64_t &slot : timedInline) {
            if (slot == ticket) {
                slot = 0;
                return true;
            }
        }
        for (std::uint64_t &t : timedSpill) {
            if (t == ticket) {
                t = timedSpill.back();
                timedSpill.pop_back();
                return true;
            }
        }
        return false;
    }

    void
    resolve(T v)
    {
        if (resolved())
            PANIC("promise resolved twice");
        value = std::move(v);
        if (first.handle) {
            fire(first);
            first = {};
        }
        if (!rest.empty()) {
            std::vector<Waiter> waiters = std::move(rest);
            rest.clear();
            for (const Waiter &w : waiters)
                fire(w);
        }
    }

  private:
    void
    fire(const Waiter &w)
    {
        if (w.ticket == 0) {
            // Plain waiter: the awaiter object in the suspended frame
            // keeps this state alive until resumption, so the event
            // only needs the handle.
            sim->scheduleWithContext(0, w.ctx,
                                     [h = w.handle] { h.resume(); });
            return;
        }
        // Timed waiter: race against its timer via the pending set.
        StateRef<T> self(this);
        sim->scheduleWithContext(
            0, w.ctx,
            [self = std::move(self), h = w.handle, ticket = w.ticket] {
                if (self.get()->settleTicket(ticket))
                    h.resume();
                // else its timer already resumed it
            });
    }
};

/**
 * Intrusive refcounted handle to a pool-allocated FutureState. The
 * non-atomic refcount is correct because a simulator (and everything
 * scheduled on it) is confined to one thread.
 */
template <typename T>
class StateRef
{
  public:
    StateRef() = default;

    /** Adopt an additional reference to @p s (increments). */
    explicit StateRef(FutureState<T> *s) : p_(s)
    {
        if (p_)
            ++p_->refs;
    }

    /** Allocate a fresh state (refcount 1) from the thread's pool. */
    static StateRef
    make(Simulator &sim)
    {
        void *mem = BlockPool::allocate(sizeof(FutureState<T>));
        StateRef r;
        r.p_ = ::new (mem) FutureState<T>(sim);
        return r;
    }

    StateRef(const StateRef &other) : p_(other.p_)
    {
        if (p_)
            ++p_->refs;
    }

    StateRef(StateRef &&other) noexcept
        : p_(std::exchange(other.p_, nullptr))
    {
    }

    StateRef &
    operator=(const StateRef &other)
    {
        StateRef copy(other);
        std::swap(p_, copy.p_);
        return *this;
    }

    StateRef &
    operator=(StateRef &&other) noexcept
    {
        if (this != &other) {
            release();
            p_ = std::exchange(other.p_, nullptr);
        }
        return *this;
    }

    ~StateRef() { release(); }

    FutureState<T> *get() const { return p_; }
    FutureState<T> *operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

  private:
    void
    release() noexcept
    {
        if (!p_)
            return;
        if (--p_->refs == 0) {
            p_->~FutureState<T>();
            BlockPool::deallocate(p_, sizeof(FutureState<T>));
        }
        p_ = nullptr;
    }

    FutureState<T> *p_ = nullptr;
};

} // namespace detail

template <typename T>
class Future;

/** Producer side of a one-shot future. Copyable (shared state). */
template <typename T>
class Promise
{
  public:
    explicit Promise(Simulator &sim)
        : state_(detail::StateRef<T>::make(sim))
    {
    }

    /** Fulfil the promise; resumes all waiters as new events. */
    void set(T value) { state_->resolve(std::move(value)); }

    bool resolved() const { return state_->resolved(); }

    Future<T> future() const;

  private:
    detail::StateRef<T> state_;
};

/** Consumer side. Copyable; all copies see the same completion. */
template <typename T>
class Future
{
  public:
    Future() = default;

    explicit Future(detail::StateRef<T> state) : state_(std::move(state))
    {
    }

    bool valid() const { return static_cast<bool>(state_); }
    bool ready() const { return state_ && state_->resolved(); }

    /** The resolved value; only valid when ready(). */
    const T &
    peek() const
    {
        if (!ready())
            PANIC("peek() on unresolved future");
        return *state_->value;
    }

    /** co_await yields a copy of the value once resolved. */
    auto
    operator co_await() const
    {
        struct Awaiter
        {
            detail::StateRef<T> state;

            bool await_ready() const noexcept { return state->resolved(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                // Record the *waiter's* context: resolution happens on
                // the resolver's stack, and the waiter must resume
                // inside its own transaction, not the resolver's.
                state->addWaiter(
                    {h, common::currentTraceContext(), 0});
            }

            T await_resume() { return *state->value; }
        };
        if (!state_)
            PANIC("co_await on invalid future");
        return Awaiter{state_};
    }

    /**
     * Awaitable that yields std::optional<T>: the value if it arrives
     * within @p timeout, std::nullopt otherwise.
     */
    auto
    withTimeout(Duration timeout) const
    {
        struct Awaiter
        {
            detail::StateRef<T> state;
            Duration timeout;

            bool await_ready() const noexcept { return state->resolved(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                detail::FutureState<T> *s = state.get();
                // A ticket in the pooled state guards against double
                // resume when both the value and the timer fire (the
                // old code heap-allocated a shared_ptr<bool> per
                // combinator for this).
                const std::uint64_t ticket = s->claimTicket();
                s->addWaiter({h, common::currentTraceContext(), ticket});
                // The timer event inherits the caller's (waiter's)
                // context via schedule()'s snapshot.
                s->sim->schedule(
                    timeout, [state = this->state, h, ticket] {
                        if (state.get()->settleTicket(ticket))
                            h.resume();
                        // else the value won the race
                    });
            }

            std::optional<T>
            await_resume()
            {
                if (state->resolved())
                    return *state->value;
                return std::nullopt;
            }
        };
        if (!state_)
            PANIC("withTimeout() on invalid future");
        return Awaiter{state_, timeout};
    }

  private:
    detail::StateRef<T> state_;
};

template <typename T>
Future<T>
Promise<T>::future() const
{
    return Future<T>(state_);
}

/** Awaitable that suspends for @p d of virtual time. */
inline auto
sleepFor(Simulator &sim, Duration d)
{
    struct Awaiter
    {
        Simulator &sim;
        Duration d;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim.schedule(d, [h] { h.resume(); });
        }

        void await_resume() const noexcept {}
    };
    if (d < 0)
        PANIC("sleepFor negative duration");
    return Awaiter{sim, d};
}

} // namespace sim

#endif // SIM_FUTURE_HH
