package qa

import (
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/spantrace"
)

func TestSpanLadderRungs(t *testing.T) {
	rungs := SpanLadder(lustre.TestNamespace(), 1)
	want := []spantrace.Layer{spantrace.Disk, spantrace.RAID, spantrace.OST, spantrace.OSS, spantrace.Client}
	if len(rungs) != len(want) {
		t.Fatalf("rungs = %+v, want layers %v bottom-up", rungs, want)
	}
	for i, r := range rungs {
		if r.Layer != want[i] {
			t.Fatalf("rung %d = %v, want %v", i, r.Layer, want[i])
		}
		if r.MBps <= 0 || r.Bytes <= 0 {
			t.Fatalf("rung %v has no positive rate: %+v", r.Layer, r)
		}
	}
	// A RAID group stripes over eight data disks, so the group rung
	// cannot exceed eight times the disk rung.
	if disk, group := rungs[0].MBps, rungs[1].MBps; group > 8*disk {
		t.Fatalf("raid rung %.1f MB/s exceeds 8x the disk rung %.1f MB/s", group, disk)
	}
}
