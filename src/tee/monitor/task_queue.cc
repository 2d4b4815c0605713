#include "tee/monitor/task_queue.hh"

namespace snpu
{

SecureTaskQueue::SecureTaskQueue(std::size_t capacity)
    : cap(capacity)
{
}

std::uint64_t
SecureTaskQueue::submit(SecureTask task)
{
    if (queue.size() >= cap)
        return 0;
    task.id = next_id++;
    task.state = SecureTaskState::submitted;
    queue.push_back(std::move(task));
    return queue.back().id;
}

SecureTask *
SecureTaskQueue::front()
{
    // The oldest task still awaiting verification+launch. Loaded
    // (running) tasks are not candidates: re-launching one would
    // clobber its live secure context.
    for (auto &task : queue) {
        if (task.state == SecureTaskState::submitted)
            return &task;
    }
    return nullptr;
}

SecureTask *
SecureTaskQueue::find(std::uint64_t id)
{
    for (auto &task : queue) {
        if (task.id == id)
            return &task;
    }
    return nullptr;
}

void
SecureTaskQueue::retire()
{
    while (!queue.empty() &&
           (queue.front().state == SecureTaskState::completed ||
            queue.front().state == SecureTaskState::rejected)) {
        queue.pop_front();
    }
}

} // namespace snpu
