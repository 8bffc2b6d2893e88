package main

import (
	"testing"
	"time"
)

func TestWriteStreamDeletesOnlyLiveBatches(t *testing.T) {
	live := map[int]bool{}
	for j := 0; j < 10*writeWindow; j++ {
		w := writeAt(j)
		if w.del {
			if !live[w.batch] {
				t.Fatalf("write %d deletes batch %d, which is not live", j, w.batch)
			}
			delete(live, w.batch)
		} else {
			if _, ok := live[w.batch]; ok {
				t.Fatalf("write %d inserts batch %d twice", j, w.batch)
			}
			live[w.batch] = true
		}
		if len(live) > writeWindow {
			t.Fatalf("after write %d, %d batches are live", j, len(live))
		}
	}
}

func TestScheduleRates(t *testing.T) {
	start := time.Duration(0)
	ops := schedule(start, 10*time.Second, 85, 60, 4)
	reads, writes := 0, 0
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
		if o.q >= 0 {
			reads++
		} else {
			if o.w != writes {
				t.Fatalf("write %d out of order (got %d)", writes, o.w)
			}
			writes++
		}
	}
	if reads != 850 || writes != 600 {
		t.Fatalf("10 s at 85 reads/s and 60 writes/s gave %d reads, %d writes", reads, writes)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var s samples
	for i := 0; i < 999; i++ {
		s.add(float64(i))
	}
	if _, err := s.tail(99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	s.add(999)
	v, err := s.tail(99)
	if err != nil || v < 989 || v > 990 {
		t.Fatalf("p99 of 0..999 = %v, %v", v, err)
	}
	if _, err := s.tail(95); err != nil {
		t.Fatal(err)
	}
}
