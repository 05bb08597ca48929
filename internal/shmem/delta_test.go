package shmem

import (
	"bytes"
	"reflect"
	"testing"
)

// TestDirtyTrackingCapturesMutations pins the delta-capture contract:
// every mutator marks the pages it touched, capture drains them in a
// deterministic order with consecutive pages merged, and reset leaves
// the next capture empty.
func TestDirtyTrackingCapturesMutations(t *testing.T) {
	s := NewSpace([]int{0, 1})
	w := s.AllocWords(0, 3*PageWords)
	b := s.AllocBytes(0, 2*PageBytes)
	s.ProtectRange(0, 0, 0)

	if got := s.CaptureDelta(0, true); len(got) != 0 {
		t.Fatalf("fresh protected set already dirty: %v", got)
	}

	s.Store(w, 7)
	s.FetchAdd(w.Add(int64(2*PageWords)), 1) // page 2 of the word segment
	s.Put(b, []byte{1, 2, 3})

	d := s.CaptureDelta(0, true)
	if len(d) != 3 {
		t.Fatalf("capture = %d ranges, want 3: %+v", len(d), d)
	}
	// Word ranges first (pages 0 and 2, not merged across the gap), the
	// byte page after.
	if d[0].Ptr.Off != 0 || d[1].Ptr.Off != int64(2*PageWords) || d[2].Ptr.Kind != KindByte {
		t.Fatalf("capture order wrong: %+v", d)
	}
	if int64(leUint64(d[0].Data)) != 7 {
		t.Fatalf("word page contents wrong: % x", d[0].Data[:8])
	}
	if got := s.CaptureDelta(0, true); len(got) != 0 {
		t.Fatalf("dirty set survived reset: %v", got)
	}

	// Consecutive dirty pages merge into one range.
	s.Store(w, 1)
	s.Store(w.Add(int64(PageWords)), 2)
	if d := s.CaptureDelta(0, true); len(d) != 1 || len(d[0].Data) != 8*2*PageWords {
		t.Fatalf("consecutive pages not merged: %+v", d)
	}

	// Mutations outside the protected prefix are invisible.
	post := s.AllocWords(0, 8)
	s.Store(post, 9)
	if d := s.CaptureDelta(0, true); len(d) != 0 {
		t.Fatalf("unprotected segment tracked: %+v", d)
	}
}

// TestSnapshotRestoreRoundTrip pins rollback: restore rewinds protected
// segments to the snapshot, leaves later segments alone, and a full
// capture of a wiped-then-restored rank matches the original.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewSpace([]int{0})
	w := s.AllocWords(0, PageWords)
	b := s.AllocBytes(0, PageBytes)
	s.ProtectRange(0, 0, 0)
	unprot := s.AllocWords(0, 1)

	s.Store(w, 42)
	s.Put(b, []byte("hello"))
	s.Store(unprot, 5)
	snap := s.Snapshot(0, 3)

	s.Store(w, 99)
	s.Put(b, []byte("XXXXX"))
	s.Restore(0, snap)
	if got := s.Load(w); got != 42 {
		t.Fatalf("restore lost word write: %d", got)
	}
	if got := s.AppendGet(nil, b, Strided{}, 5); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("restore lost byte write: %q", got)
	}
	if got := s.Load(unprot); got != 5 {
		t.Fatalf("restore clobbered unprotected segment: %d", got)
	}

	full := s.CaptureFull(0, false)
	s.WipeProtected(0)
	if got := s.Load(w); got != 0 {
		t.Fatalf("wipe left word %d", got)
	}
	for _, r := range full {
		s.WriteRaw(r.Ptr, r.Data)
	}
	if !reflect.DeepEqual(s.CaptureFull(0, false), full) {
		t.Fatal("full capture + raw write did not reproduce the rank image")
	}
	if got := s.Load(w); got != 42 {
		t.Fatalf("raw restore lost word write: %d", got)
	}
}

// TestRawRoundTrip pins the ReadRaw/WriteRaw symmetry on both kinds.
func TestRawRoundTrip(t *testing.T) {
	s := NewSpace([]int{0})
	w := s.AllocWords(0, 4)
	b := s.AllocBytes(0, 16)
	s.Store(w.Add(1), -12345)
	s.Put(b.Add(2), []byte{9, 8, 7})

	raw := s.ReadRaw(w, 32)
	s.Store(w.Add(1), 0)
	s.WriteRaw(w, raw)
	if got := s.Load(w.Add(1)); got != -12345 {
		t.Fatalf("word raw round trip lost value: %d", got)
	}
	rb := s.ReadRaw(b, 16)
	s.Put(b.Add(2), []byte{0, 0, 0})
	s.WriteRaw(b, rb)
	if got := s.AppendGet(nil, b.Add(2), Strided{}, 3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("byte raw round trip lost value: %v", got)
	}
}
