package msg

import (
	"strings"
	"testing"
)

func TestAddrConstructors(t *testing.T) {
	u := User(3)
	if u.Server() || u.ID() != 3 {
		t.Fatalf("User(3) = %+v", u)
	}
	s := ServerOf(2)
	if !s.Server() || s.ID() != 2 {
		t.Fatalf("ServerOf(2) = %+v", s)
	}
	if u.String() != "p3" || s.String() != "srv2" {
		t.Fatalf("strings %q %q", u, s)
	}
}

func TestKindAndRmwNames(t *testing.T) {
	kinds := []Kind{KindPut, KindPutAck, KindGet, KindGetResp, KindAcc, KindRmw,
		KindRmwResp, KindFenceReq, KindFenceAck, KindLockReq, KindLockGrant,
		KindUnlock, KindColl, KindSend}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("unknown kind formatting")
	}
	ops := []RmwOp{RmwFetchAdd, RmwSwapPair, RmwCASPair, RmwLoadPair,
		RmwStore, RmwStorePair}
	for _, o := range ops {
		if strings.HasPrefix(o.String(), "RmwOp(") {
			t.Fatalf("rmw op %d has no name", o)
		}
	}
}

func TestQueueFIFOWithinMatch(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Put(&Message{Kind: KindColl, Tag: i})
	}
	for i := 0; i < 5; i++ {
		m := q.TryPop(MatchKind(KindColl))
		if m == nil || m.Tag != i {
			t.Fatalf("pop %d returned %+v", i, m)
		}
	}
	if q.TryPop(MatchAny) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestQueueMatchedRemovalSkipsOthers(t *testing.T) {
	var q Queue
	q.Put(&Message{Kind: KindPutAck})
	q.Put(&Message{Kind: KindRmwResp, Token: 9})
	q.Put(&Message{Kind: KindPutAck})

	m := q.TryPop(MatchToken(KindRmwResp, 9))
	if m == nil || m.Kind != KindRmwResp {
		t.Fatalf("matched pop returned %+v", m)
	}
	if q.Len() != 2 {
		t.Fatalf("queue len %d, want 2", q.Len())
	}
	// Both remaining are acks, in order.
	if q.TryPop(MatchKind(KindPutAck)) == nil || q.TryPop(MatchKind(KindPutAck)) == nil {
		t.Fatal("acks lost")
	}
}

func TestMatchToken(t *testing.T) {
	m := &Message{Kind: KindGetResp, Token: 5}
	if !MatchToken(KindGetResp, 5).Matches(m) {
		t.Fatal("should match")
	}
	if MatchToken(KindGetResp, 6).Matches(m) || MatchToken(KindRmwResp, 5).Matches(m) {
		t.Fatal("should not match")
	}
}

func TestMatchSrcTag(t *testing.T) {
	m := &Message{Kind: KindColl, Src: User(2), Tag: 77}
	if !MatchSrcTag(KindColl, User(2), 77).Matches(m) {
		t.Fatal("should match")
	}
	if MatchSrcTag(KindColl, User(3), 77).Matches(m) ||
		MatchSrcTag(KindColl, User(2), 78).Matches(m) ||
		MatchSrcTag(KindSend, User(2), 77).Matches(m) {
		t.Fatal("should not match")
	}
}

func TestMatchKindAnyNone(t *testing.T) {
	m := &Message{Kind: KindColl, Src: User(2), Tag: 77, Token: 5}
	if !MatchKind(KindColl).Matches(m) || MatchKind(KindSend).Matches(m) {
		t.Fatal("MatchKind compares the kind alone")
	}
	if !MatchAny.Matches(m) || MatchNone.Matches(m) {
		t.Fatal("MatchAny selects every message, MatchNone none")
	}
	if MatchToken(KindColl, 5) != MatchToken(KindColl, 5) || MatchToken(KindColl, 5) == MatchKind(KindColl) {
		t.Fatal("a Match is a comparable value")
	}
	if avg := testing.AllocsPerRun(100, func() {
		if !MatchSrcTag(KindColl, User(2), 77).Matches(m) || !MatchToken(KindColl, 5).Matches(m) {
			t.Fatal("should match")
		}
	}); avg != 0 {
		t.Fatalf("building and applying a Match allocates %.2f, want 0", avg)
	}
}

func TestQueueDropBelow(t *testing.T) {
	var q Queue
	for i, e := range []uint64{2, 1, 3, 0, 2} {
		q.Put(&Message{Kind: KindSend, Tag: i, Epoch: e})
	}
	q.DropBelow(2)
	for _, want := range []int{0, 2, 4} {
		if m := q.TryPop(MatchAny); m == nil || m.Tag != want {
			t.Fatalf("after DropBelow(2) popped %+v, want tag %d", m, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d messages left", q.Len())
	}
}

func TestPayloadBytesIncludesHeader(t *testing.T) {
	small := &Message{Kind: KindFenceReq}
	big := &Message{Kind: KindPut, Data: make([]byte, 100)}
	if small.PayloadBytes() <= 0 {
		t.Fatal("control message has zero wire size")
	}
	if big.PayloadBytes() != small.PayloadBytes()+100 {
		t.Fatalf("payload accounting: %d vs %d", big.PayloadBytes(), small.PayloadBytes())
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{Kind: KindPut, Src: User(1), Dst: ServerOf(0), Token: 3, Data: []byte{1, 2}}
	s := m.String()
	for _, want := range []string{"put", "p1", "srv0", "tok=3", "data=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}
