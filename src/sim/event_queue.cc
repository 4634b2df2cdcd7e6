#include "sim/event_queue.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cwsim
{

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    panic_if(when < curTick_,
             "event scheduled in the past (when=%llu, now=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick_));
    heap.push_back(Entry{when, priority, nextSeq++, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numScheduled;
}

void
EventQueue::fireNext()
{
    // Take the entry out of the heap before firing: the callback may
    // schedule new events, which can reallocate the vector.
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Entry e = std::move(heap.back());
    heap.pop_back();
    curTick_ = e.when;
    ++numFired;
    e.cb();
}

void
EventQueue::runUntil(Tick now)
{
    while (!heap.empty() && heap.front().when <= now)
        fireNext();
    if (curTick_ < now)
        curTick_ = now;
}

void
EventQueue::drain()
{
    while (!heap.empty())
        fireNext();
}

void
EventQueue::reset()
{
    heap.clear();
    curTick_ = 0;
    nextSeq = 0;
    // Counters too: a reused queue must not bleed scheduled/fired
    // counts from a previous run into the next one's statistics.
    numScheduled = 0;
    numFired = 0;
}

} // namespace cwsim
