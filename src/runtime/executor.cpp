/**
 * @file
 * ProbeExecutor implementation. See executor.hpp for the contract;
 * the load-bearing choices here are:
 *
 *  - per-worker mutex-protected deques instead of one global queue:
 *    submission deals tasks round-robin (task id % workers), owners
 *    pop the front, thieves take the back — the classic Chase-Lev
 *    shape, with plain mutexes because probe tasks are milliseconds
 *    of simulation, not nanoseconds of arithmetic, so lock traffic
 *    is noise (measured in docs/PERFORMANCE.md);
 *  - completion signalling is per-task (doneMutex/doneCv) so a
 *    waiter that ran out of work to help with sleeps on exactly its
 *    task, not on a global "something finished" channel;
 *  - the destructor first drains every queued task (running them on
 *    the destructing thread if the workers are gone or busy), then
 *    joins — a dropped Future still has its side effects run, and no
 *    task is ever silently discarded.
 */

#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace pointacc {

ProbeExecutor::ProbeExecutor(std::size_t thread_count)
{
    workers.reserve(thread_count);
    for (std::size_t i = 0; i < thread_count; ++i)
        workers.push_back(std::make_unique<Worker>());
    threads.reserve(thread_count);
    for (std::size_t i = 0; i < thread_count; ++i)
        threads.emplace_back([this, i] { workerLoop(i); });
}

ProbeExecutor::~ProbeExecutor()
{
    // Drain: run every still-queued task on this thread so no
    // submitted work is dropped, then wake and join the workers.
    while (tryRunOne(workers.size())) {
    }
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
        stopping = true;
    }
    sleepCv.notify_all();
    for (auto &t : threads)
        t.join();
}

std::size_t
ProbeExecutor::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t
ProbeExecutor::resolveThreads(std::size_t requested)
{
    if (requested > kMaxThreads)
        throw std::invalid_argument(
            "thread count " + std::to_string(requested) +
            " exceeds the limit of " + std::to_string(kMaxThreads));
    const std::size_t n = requested == 0 ? defaultThreads() : requested;
    // One thread of parallelism is just the caller: inline mode.
    return n <= 1 ? 0 : n;
}

std::shared_ptr<ProbeExecutor::Task>
ProbeExecutor::enqueue(std::function<void()> run)
{
    auto task = std::make_shared<Task>();
    task->run = std::move(run);
    if (workers.empty()) {
        // Inline mode: execute on the caller, before submit returns.
        task->id = nextId++;
        runTask(*task, 0);
        return task;
    }
    {
        std::lock_guard<std::mutex> lock(sleepMutex);
        task->id = nextId++;
        task->home = static_cast<std::size_t>(task->id % workers.size());
        Worker &w = *workers[task->home];
        std::lock_guard<std::mutex> qlock(w.mutex);
        w.deque.push_back(task);
    }
    sleepCv.notify_all();
    return task;
}

void
ProbeExecutor::runTask(Task &task, std::size_t runner)
{
    task.run();
    task.run = nullptr; // release captures eagerly
    numExecuted.fetch_add(1);
    if (!workers.empty() && runner != task.home)
        numStolen.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(task.doneMutex);
        task.done = true;
    }
    task.doneCv.notify_all();
}

bool
ProbeExecutor::tryRunOne(std::size_t self)
{
    const std::size_t n = workers.size();
    if (n == 0)
        return false;
    // Own deque first (front = submission order), then sweep victims
    // from the back — oldest queued work, the steal that unblocks a
    // backlog soonest.
    if (self < n) {
        Worker &own = *workers[self];
        std::shared_ptr<Task> task;
        {
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.deque.empty()) {
                task = own.deque.front();
                own.deque.pop_front();
            }
        }
        if (task) {
            runTask(*task, self);
            return true;
        }
    }
    for (std::size_t offset = 1; offset <= n; ++offset) {
        const std::size_t victim = (self + offset) % n;
        if (victim == self)
            continue;
        Worker &w = *workers[victim];
        std::shared_ptr<Task> task;
        {
            std::lock_guard<std::mutex> lock(w.mutex);
            if (!w.deque.empty()) {
                task = w.deque.back();
                w.deque.pop_back();
            }
        }
        if (task) {
            runTask(*task, self);
            return true;
        }
    }
    return false;
}

void
ProbeExecutor::workerLoop(std::size_t index)
{
    for (;;) {
        if (tryRunOne(index))
            continue;
        std::unique_lock<std::mutex> lock(sleepMutex);
        if (stopping)
            return;
        // Re-check under the lock: enqueue holds sleepMutex while
        // publishing, so a task made visible before we slept will be
        // found by the next tryRunOne after wait() returns.
        sleepCv.wait(lock);
    }
}

void
ProbeExecutor::waitFor(Task &task)
{
    // Help while waiting: run pending tasks (possibly the awaited one)
    // instead of blocking, so nested get() calls cannot deadlock the
    // pool. Helper threads use index workers.size(): no home deque,
    // every execution counts as a steal.
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(task.doneMutex);
            if (task.done)
                return;
        }
        if (tryRunOne(workers.size()))
            continue;
        std::unique_lock<std::mutex> lock(task.doneMutex);
        // Short timeout: a task we could help with may be enqueued
        // while we sleep on this task's latch.
        task.doneCv.wait_for(lock, std::chrono::milliseconds(1),
                             [&task] { return task.done; });
        if (task.done)
            return;
    }
}

} // namespace pointacc
