#include "sim/pool.hh"

namespace sim::detail {

thread_local BlockPool BlockPool::threadPool_;

BlockPool *
BlockPool::attach()
{
    if (exited_)
        return nullptr;
    // First use constructs the thread's pool and registers its
    // destructor to run at thread exit.
    current_ = &threadPool_;
    return current_;
}

BlockPool::~BlockPool()
{
    // From here on, releases on this thread bypass the pool.
    current_ = nullptr;
    exited_ = true;
    for (std::size_t cls = 0; cls < free_.size(); ++cls) {
        void *head = free_[cls];
        while (head) {
            SIM_POOL_UNPOISON(head, (cls + 1) * kGranularity);
            void *next = *static_cast<void **>(head);
            ::operator delete(head);
            head = next;
        }
    }
}

} // namespace sim::detail
