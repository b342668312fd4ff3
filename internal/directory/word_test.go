package directory

import (
	"slices"
	"testing"
)

// FuzzWord runs random update sequences on a Word and checks every step
// against the Entry codec: each update must equal Encode of the Entry
// operation on Decode(w), and the readers must agree with Decode. The
// first two bytes pick the node count (1–1024); each following 3-byte
// group is one update (op, node low byte, node high bits), the node
// reduced below the node count. Clears are rare so sequences reach the
// coarse vector. Inputs stop after maxWordSteps updates: each step
// checks every node, and a long input at 1024 nodes would stall the
// fuzzer on one run. The seed corpus under testdata/fuzz/FuzzWord
// replays in every plain go test run.
func FuzzWord(f *testing.F) {
	const maxWordSteps = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 2+3*maxWordSteps)]
		cfg := Config{Nodes: 1 + (int(data[0]) | int(data[1]&3)<<8)}
		var w Word
		checkReaders(t, cfg, w, -1)
		for i := 2; i+3 <= len(data); i += 3 {
			n := NodeID((int(data[i+1]) | int(data[i+2])<<8) % cfg.Nodes)
			e := Decode(cfg, uint64(w))
			var got Word
			switch op := data[i] % 16; {
			case op < 11:
				got, e = w.AddSharer(cfg, n), AddSharer(cfg, e, n)
			case op < 15:
				got, e = ExclusiveWord(n), SetExclusive(e, n)
			default:
				got, e = UncachedWord, Clear()
			}
			want, err := Encode(cfg, e)
			if err != nil {
				t.Fatalf("step %d: %d nodes: oracle cannot encode %+v: %v", i, cfg.Nodes, e, err)
			}
			if got != Word(want) {
				t.Fatalf("step %d: %d nodes: op %d on %#x node %d gave %#x, codec %#x",
					i, cfg.Nodes, data[i]%16, uint64(w), n, uint64(got), want)
			}
			w = got
			checkReaders(t, cfg, w, i)
		}
	})
}

// checkReaders compares a word's State, Owner, Has and AppendMembers
// with its decoded Entry.
func checkReaders(t *testing.T, cfg Config, w Word, step int) {
	t.Helper()
	e := Decode(cfg, uint64(w))
	if w.State() != e.State || w.Owner() != e.Owner {
		t.Fatalf("step %d: %#x reads %v/%d, decodes %v/%d", step, uint64(w), w.State(), w.Owner(), e.State, e.Owner)
	}
	for n := 0; n < cfg.Nodes; n++ {
		if w.Has(cfg, NodeID(n)) != e.Sharers.Has(NodeID(n)) {
			t.Fatalf("step %d: %#x Has(%d) = %v, decoded set disagrees", step, uint64(w), n, !e.Sharers.Has(NodeID(n)))
		}
	}
	prefix := []NodeID{7}
	got := w.AppendMembers(cfg, prefix)
	want := e.Sharers.AppendMembers(prefix, cfg.Nodes)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: %#x AppendMembers %v, decoded %v", step, uint64(w), got, want)
	}
}

// The coarse switch happens on the fifth distinct sharer and keeps
// every sharer's group, at a node count whose groups span two nodes.
func TestWordAddSharerSwitchesToCoarse(t *testing.T) {
	cfg := Config{Nodes: 64} // 2 nodes per group
	w := UncachedWord
	for _, n := range []NodeID{9, 3, 40, 3, 17} {
		w = w.AddSharer(cfg, n)
	}
	if w.State() != Shared || !slices.Equal(w.AppendMembers(cfg, nil), []NodeID{3, 9, 17, 40}) {
		t.Fatalf("four sharers: %v %v", w.State(), w.AppendMembers(cfg, nil))
	}
	w = w.AddSharer(cfg, 63)
	if w.State() != SharedCoarse {
		t.Fatalf("fifth sharer left state %v", w.State())
	}
	want := []NodeID{2, 3, 8, 9, 16, 17, 40, 41, 62, 63}
	if got := w.AppendMembers(cfg, nil); !slices.Equal(got, want) {
		t.Fatalf("coarse members %v, want %v", got, want)
	}
	if !w.Has(cfg, 2) || w.Has(cfg, 4) {
		t.Fatalf("coarse Has: group of 3 must include 2, node 4 is in no set group")
	}
}

// An exclusive owner that gains a sharer downgrades to two ascending
// pointers; Owner reads 0 once the entry is no longer exclusive.
func TestWordExclusiveDowngrade(t *testing.T) {
	w := ExclusiveWord(12)
	if w.State() != Exclusive || w.Owner() != 12 || w.Has(cfg1k, 12) {
		t.Fatalf("exclusive word: %v owner %d", w.State(), w.Owner())
	}
	w = w.AddSharer(cfg1k, 5)
	if w.State() != Shared || w.Owner() != 0 || !slices.Equal(w.AppendMembers(cfg1k, nil), []NodeID{5, 12}) {
		t.Fatalf("downgrade: %v owner %d members %v", w.State(), w.Owner(), w.AppendMembers(cfg1k, nil))
	}
	if got := ExclusiveWord(4).AddSharer(cfg1k, 4); got.State() != Shared || !slices.Equal(got.AppendMembers(cfg1k, nil), []NodeID{4}) {
		t.Fatalf("owner re-added as sharer: %v %v", got.State(), got.AppendMembers(cfg1k, nil))
	}
}
