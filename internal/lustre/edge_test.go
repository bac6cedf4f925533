package lustre

import (
	"fmt"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func TestReadUntilStonewall(t *testing.T) {
	eng, fs := testFS(t, 90)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("r/f", 2, func(f *File) { file = f })
	eng.Run()
	client.WriteStream(file, 32<<20, 1<<20, nil)
	eng.Run()
	var read int64
	client.ReadUntil(file, eng.Now()+sim.Second, 1<<20, false, func(n int64) { read = n })
	eng.Run()
	if read <= 0 {
		t.Fatal("stonewall read moved nothing")
	}
}

func TestWriteUntilPastDeadlineCompletesEmpty(t *testing.T) {
	eng, fs := testFS(t, 91)
	client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
	var file *File
	fs.Create("w/f", 1, func(f *File) { file = f })
	eng.Run()
	called := false
	client.WriteUntil(file, 0, 1<<20, func(n int64) {
		called = true
		if n != 0 {
			t.Errorf("past-deadline stonewall wrote %d", n)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("completion callback never ran")
	}
}

func TestControllerOversizeWriteAdmitted(t *testing.T) {
	// A single write larger than the cache must not deadlock: it is
	// admitted when the cache is empty.
	eng := sim.NewEngine()
	ctrl := NewController(eng, 0, ControllerConfig{
		Bps: 1e9, FixedPerRPC: sim.Microsecond, Slots: 2, CacheBytes: 1 << 20,
	})
	done := false
	ctrl.AdmitWrite(8<<20, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("oversize write deadlocked")
	}
	ctrl.Flushed(8 << 20)
	if ctrl.Dirty() != 0 {
		t.Fatalf("dirty = %d", ctrl.Dirty())
	}
}

// Stalled writers are admitted from the head of the queue, in arrival
// order, and only as many as the freed space holds: a waiter that still
// does not fit stays queued without being woken and counted again.
func TestControllerWaitersDrainInOrder(t *testing.T) {
	for _, c := range []struct {
		name    string
		flushes []int64
		want    [][]int // completions after each flush
	}{
		{"room for both", []int64{2 << 20}, [][]int{{0, 1, 2, 3}}},
		{"room for one", []int64{1 << 20, 1 << 20}, [][]int{{0, 1, 2}, {0, 1, 2, 3}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			ctrl := NewController(eng, 0, ControllerConfig{
				Bps: 1e12, FixedPerRPC: sim.Microsecond, Slots: 4, CacheBytes: 2 << 20,
			})
			var order []int
			for i := 0; i < 4; i++ {
				ctrl.AdmitWrite(1<<20, func() { order = append(order, i) })
			}
			eng.Run()
			// First two admitted; remaining stalled.
			if ctrl.CacheStalls != 2 {
				t.Fatalf("stalls = %d, want 2", ctrl.CacheStalls)
			}
			for k, size := range c.flushes {
				ctrl.Flushed(size)
				eng.Run()
				if fmt.Sprint(order) != fmt.Sprint(c.want[k]) || ctrl.CacheStalls != 2 {
					t.Fatalf("flush %d: completions = %v, stalls = %d; want %v, 2", k, order, ctrl.CacheStalls, c.want[k])
				}
			}
		})
	}
}

func TestObjectFlushTimerForcesResidual(t *testing.T) {
	eng, fs := testFS(t, 92)
	ost := fs.OSTs[0]
	obj := ost.NewObject()
	// A partial write smaller than a stripe stays buffered until the
	// flush timer forces it out.
	obj.Write(256<<10, nil)
	eng.RunUntil(eng.Now() + ost.FlushDelay + 200*sim.Millisecond)
	if ost.Controller().Dirty() != 0 {
		t.Fatalf("residual not flushed: dirty=%d", ost.Controller().Dirty())
	}
	if ost.FragmentedFlushes == 0 {
		t.Fatal("forced residual flush not recorded")
	}
}

func TestObjectExplicitFlush(t *testing.T) {
	eng, fs := testFS(t, 93)
	obj := fs.OSTs[0].NewObject()
	obj.Write(256<<10, nil)
	flushed := false
	eng.After(sim.Millisecond, func() {
		obj.Flush(func() { flushed = true })
	})
	eng.Run()
	if !flushed {
		t.Fatal("explicit flush never completed")
	}
	// Flushing an empty buffer completes too.
	again := false
	obj.Flush(func() { again = true })
	eng.Run()
	if !again {
		t.Fatal("empty flush never completed")
	}
}

func TestDestroyReleasesDirtyCache(t *testing.T) {
	eng, fs := testFS(t, 94)
	ost := fs.OSTs[0]
	obj := ost.NewObject()
	obj.Write(512<<10, nil)
	eng.RunUntil(eng.Now() + sim.Millisecond) // in cache, not yet force-flushed
	if ost.Controller().Dirty() == 0 {
		t.Fatal("test setup: nothing dirty")
	}
	obj.Destroy()
	if ost.Controller().Dirty() != 0 {
		t.Fatalf("destroy left %d dirty", ost.Controller().Dirty())
	}
	if ost.Used() != 0 {
		t.Fatalf("destroy left %d used", ost.Used())
	}
	eng.Run()
}

func TestSetFillRejectsOutOfRange(t *testing.T) {
	_, fs := testFS(t, 95)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fs.OSTs[0].SetFill(1.5)
}

func TestPreloadNegativePanics(t *testing.T) {
	_, fs := testFS(t, 96)
	obj := fs.OSTs[0].NewObject()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	obj.Preload(-1)
}

func TestFabriclessBuildDeterminism(t *testing.T) {
	// Two identical builds produce identical OST capacity layouts and
	// identical first-write behaviour.
	run := func() (int64, sim.Time) {
		eng := sim.NewEngine()
		fs := Build(eng, TestNamespace(), rng.New(1234))
		client := NewClient(0, topology.Coord{}, fs, NullTransport{Eng: eng})
		var file *File
		fs.Create("det/f", 4, func(f *File) { file = f })
		eng.Run()
		client.WriteStream(file, 16<<20, 1<<20, nil)
		eng.Run()
		return fs.TotalUsed(), eng.Now()
	}
	u1, t1 := run()
	u2, t2 := run()
	if u1 != u2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", u1, t1, u2, t2)
	}
}
