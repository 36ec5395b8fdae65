package serve

import (
	"errors"
	"slices"
	"sync"
)

// ErrQueueFull is the admission-control rejection: the queue already
// holds its configured bound of waiting jobs. Clients should back off
// and resubmit; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue full")

// jobQueue is the bounded FIFO between Submit and the runner pool: jobs
// pop in admission order. The bound counts waiting jobs only — jobs
// hand their queue slot back the moment a runner pops them.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*Job
	limit  int
	closed bool
}

func newJobQueue(limit int) *jobQueue {
	q := &jobQueue{limit: limit}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits j or rejects with ErrQueueFull.
func (q *jobQueue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("serve: server closed")
	}
	if len(q.jobs) >= q.limit {
		return ErrQueueFull
	}
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available and returns the oldest, or
// returns nil once the queue is closed (remaining entries are
// abandoned — Close marks them canceled).
func (q *jobQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.jobs) == 0 {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	return j
}

// remove withdraws a still-queued job (cancellation); reports whether
// it was present. The scan is bounded by the queue limit.
func (q *jobQueue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.jobs, j)
	if i < 0 {
		return false
	}
	q.jobs = slices.Delete(q.jobs, i, i+1)
	return true
}

// depth returns the number of waiting jobs.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// close wakes every blocked pop with nil.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
