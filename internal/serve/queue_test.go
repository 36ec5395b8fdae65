package serve

import (
	"context"
	"testing"

	"repro/internal/task"
)

func qjob(seq int64) *Job {
	return newJob(context.Background(), seq, task.Spec{Kind: task.KindScreen, Circuit: "s27"})
}

// TestQueueFIFOOrder: jobs pop in admission order, also when pushes
// interleave with pops, and cancelling a job mid-queue withdraws
// exactly that job.
func TestQueueFIFOOrder(t *testing.T) {
	q := newJobQueue(16)
	var jobs []*Job
	push := func() {
		j := qjob(int64(len(jobs) + 1))
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 4; i++ {
		push()
	}
	if got := q.pop(); got != jobs[0] {
		t.Fatalf("first pop = %s, want %s", got.id, jobs[0].id)
	}
	push()
	if !q.remove(jobs[2]) {
		t.Fatal("remove of a queued job = false, want true")
	}
	if q.depth() != 3 {
		t.Fatalf("depth after remove = %d, want 3", q.depth())
	}
	for i, w := range []*Job{jobs[1], jobs[3], jobs[4]} {
		if got := q.pop(); got != w {
			t.Fatalf("pop %d = %s, want %s", i, got.id, w.id)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d, want 0", q.depth())
	}
}

func TestQueueAdmissionBound(t *testing.T) {
	q := newJobQueue(2)
	if err := q.push(qjob(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(2)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(3)); err != ErrQueueFull {
		t.Fatalf("third push err = %v, want ErrQueueFull", err)
	}
	// Popping frees a slot.
	q.pop()
	if err := q.push(qjob(4)); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newJobQueue(16)
	a, b, c := qjob(1), qjob(2), qjob(3)
	for _, j := range []*Job{a, b, c} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	if !q.remove(b) {
		t.Fatal("remove(b) = false, want true")
	}
	if q.remove(b) {
		t.Fatal("second remove(b) = true, want false")
	}
	if got := q.pop(); got != a {
		t.Fatalf("pop = %s, want a", got.id)
	}
	if got := q.pop(); got != c {
		t.Fatalf("pop = %s, want c", got.id)
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d, want 0", q.depth())
	}
}

func TestQueueCloseWakesPop(t *testing.T) {
	q := newJobQueue(16)
	done := make(chan *Job, 1)
	go func() { done <- q.pop() }()
	q.close()
	if j := <-done; j != nil {
		t.Fatalf("pop after close = %v, want nil", j)
	}
}
