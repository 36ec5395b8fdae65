package serve

import (
	"context"
	"testing"

	"repro/internal/task"
)

func qjob(seq int64, priority int) *Job {
	return newJob(context.Background(), seq, task.Spec{Kind: task.KindScreen, Circuit: "s27", Priority: priority})
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue(16)
	low1 := qjob(1, 0)
	high := qjob(2, 5)
	low2 := qjob(3, 0)
	mid := qjob(4, 2)
	for _, j := range []*Job{low1, high, low2, mid} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []*Job{high, mid, low1, low2} // priority desc, FIFO within
	for i, w := range want {
		got := q.pop()
		if got != w {
			t.Fatalf("pop %d = seq %d (prio %d), want seq %d (prio %d)",
				i, got.seq, got.spec.Priority, w.seq, w.spec.Priority)
		}
	}
}

func TestQueueAdmissionBound(t *testing.T) {
	q := newJobQueue(2)
	if err := q.push(qjob(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(3, 0)); err != ErrQueueFull {
		t.Fatalf("third push err = %v, want ErrQueueFull", err)
	}
	// Popping frees a slot.
	q.pop()
	if err := q.push(qjob(4, 0)); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newJobQueue(16)
	a, b, c := qjob(1, 0), qjob(2, 0), qjob(3, 0)
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
		t.Fatalf("pop = seq %d, want a", got.seq)
	}
	if got := q.pop(); got != c {
		t.Fatalf("pop = seq %d, want c", got.seq)
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
