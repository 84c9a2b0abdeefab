/**
 * @file
 * Work-stealing probe executor: the parallel engine behind planner
 * probes, bench sweep matrices and the sharded property suites.
 *
 * Every planner probe, bench matrix row and property-suite seed is an
 * independent deterministic simulation, so the repo's sweeps are
 * embarrassingly parallel — what they need is a pool that (a) keeps
 * every core busy under unbalanced task costs (a fleet-10 probe can
 * cost 10x a fleet-1 probe) and (b) never lets parallelism leak into
 * results. ProbeExecutor provides both:
 *
 *  - submission is deterministic: tasks get monotonically increasing
 *    ids in submission order and are dealt round-robin to per-worker
 *    deques; map() returns results in submission order, whatever
 *    order the workers finished in (the deterministic-merge step
 *    every consumer relies on for byte-identical output);
 *  - workers pop their own deque front; an idle worker steals from
 *    the back of a victim's deque, so a worker stuck behind one
 *    expensive probe sheds its backlog to the others (the
 *    executor-manager discipline of keeping every lane fed);
 *  - a thread blocked in Future::get() helps: it executes pending
 *    tasks (its own wait target included) instead of sleeping, so
 *    nested waits make progress even on a single-worker pool;
 *  - exceptions propagate: a throwing task stores its exception and
 *    Future::get() rethrows it on the consumer thread;
 *  - threadCount() == 0 is inline mode: submit() runs the task on
 *    the calling thread immediately — the serial baseline the
 *    differential gates compare parallel runs against, with zero
 *    threads created.
 *
 * Determinism contract: the executor schedules *when* tasks run,
 * never *what they compute* — tasks must not share mutable state
 * (SimServiceModel's memo is internally synchronized for exactly this
 * reason), and consumers must merge by task id, not completion order.
 * Under that contract a parallel sweep is byte-identical to the
 * serial one, which bench_serving, bench_simperf and the property
 * suite all enforce with differential gates.
 */

#ifndef POINTACC_RUNTIME_EXECUTOR_HPP
#define POINTACC_RUNTIME_EXECUTOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace pointacc {

class ProbeExecutor
{
  public:
    /**
     * @param thread_count  worker threads to spawn; 0 = inline mode
     *                      (no threads, submit() executes on the
     *                      caller — the serial baseline)
     */
    explicit ProbeExecutor(std::size_t thread_count);

    /** Drains every submitted task, then joins the workers. */
    ~ProbeExecutor();

    ProbeExecutor(const ProbeExecutor &) = delete;
    ProbeExecutor &operator=(const ProbeExecutor &) = delete;

    /** Worker threads to use when the caller asks for "auto":
     *  hardware_concurrency, floored at 1. */
    static std::size_t defaultThreads();

    /** Largest worker count resolveThreads accepts: far above any
     *  useful probe parallelism, far below what a typoed knob could
     *  ask the operating system for. */
    static constexpr std::size_t kMaxThreads = 1024;

    /** Resolve a --threads style knob: 0 = auto (defaultThreads()),
     *  1 = serial inline mode, N = N workers.
     *  @throws std::invalid_argument when requested > kMaxThreads */
    static std::size_t resolveThreads(std::size_t requested);

    std::size_t threadCount() const { return workers.size(); }

    /** Tasks executed so far (all modes). */
    std::uint64_t executed() const { return numExecuted.load(); }

    /** Tasks executed by a thread other than their home worker —
     *  worker steals and helper runs alike. The unit suite asserts
     *  this is non-zero in schedules that can only terminate through
     *  a steal. */
    std::uint64_t stolen() const { return numStolen.load(); }

    template <class T> class Future;

    /** Submit a callable; returns a typed future with a deterministic
     *  task id. In inline mode the task runs before submit returns. */
    template <class F, class T = std::invoke_result_t<F>>
    Future<T>
    submit(F fn)
    {
        static_assert(!std::is_reference_v<T>,
                      "tasks must return by value");
        Future<T> fut;
        fut.owner = this;
        fut.state = std::make_shared<typename Future<T>::State>();
        auto state = fut.state;
        fut.task = enqueue([state, fn = std::move(fn)]() mutable {
            try {
                if constexpr (std::is_void_v<T>) {
                    fn();
                    state->value.emplace();
                } else {
                    state->value.emplace(fn());
                }
            } catch (...) {
                state->error = std::current_exception();
            }
        });
        return fut;
    }

    /**
     * Run every task and return the results in submission order —
     * the deterministic-merge primitive: result[i] is task[i]'s value
     * however the workers interleaved. Rethrows the first (by task
     * order) failed task's exception after all tasks finished.
     */
    template <class T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        std::vector<Future<T>> futures;
        futures.reserve(tasks.size());
        for (auto &task : tasks)
            futures.push_back(submit(std::move(task)));
        std::vector<T> results;
        results.reserve(futures.size());
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    }

  private:
    /** One queued task: the erased work plus its completion latch. */
    struct Task
    {
        std::uint64_t id = 0;
        std::size_t home = 0;
        std::function<void()> run;
        std::mutex doneMutex;
        std::condition_variable doneCv;
        bool done = false;
    };

    struct Worker
    {
        std::mutex mutex;
        std::deque<std::shared_ptr<Task>> deque;
    };

    std::shared_ptr<Task> enqueue(std::function<void()> run);
    void runTask(Task &task, std::size_t runner);
    /** Pop own deque front, else steal a victim's back; true if a
     *  task was run. `self` is the runner's home index (workers.size()
     *  for helper threads, which always "steal"). */
    bool tryRunOne(std::size_t self);
    void workerLoop(std::size_t index);
    void waitFor(Task &task);

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    std::mutex sleepMutex;
    std::condition_variable sleepCv;
    bool stopping = false;
    std::uint64_t nextId = 0;
    std::atomic<std::uint64_t> numExecuted{0};
    std::atomic<std::uint64_t> numStolen{0};

  public:
    /** Handle to a submitted task's result. get() blocks — helping
     *  execute pending tasks, not sleeping — then returns the value
     *  or rethrows the task's exception. */
    template <class T> class Future
    {
      public:
        Future() = default;

        bool valid() const { return state != nullptr; }

        /** Task id in submission order (the deterministic merge key). */
        std::uint64_t id() const { return task->id; }

        T
        get()
        {
            owner->waitFor(*task);
            if (state->error)
                std::rethrow_exception(state->error);
            if constexpr (!std::is_void_v<T>)
                return std::move(*state->value);
        }

      private:
        friend class ProbeExecutor;
        /** void tasks store a monostate so State stays one shape. */
        using Stored =
            std::conditional_t<std::is_void_v<T>, std::monostate, T>;
        struct State
        {
            std::optional<Stored> value;
            std::exception_ptr error;
        };
        std::shared_ptr<State> state;
        std::shared_ptr<Task> task;
        ProbeExecutor *owner = nullptr;
    };
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_EXECUTOR_HPP
