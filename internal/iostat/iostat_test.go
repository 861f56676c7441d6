package iostat

import (
	"strings"
	"testing"
)

func TestAdd(t *testing.T) {
	a := Stats{PagesRead: 10, PagesWritten: 2, ReadCalls: 5, WriteCalls: 1, BufferFixes: 20, BufferHits: 8}
	b := Stats{PagesRead: 3, PagesWritten: 1, ReadCalls: 2, WriteCalls: 1, BufferFixes: 4, BufferHits: 4}
	var s Stats
	s.Add(a)
	s.Add(b)
	want := Stats{PagesRead: 13, PagesWritten: 3, ReadCalls: 7, WriteCalls: 2, BufferFixes: 24, BufferHits: 12}
	if s != want {
		t.Fatalf("Add: got %+v want %+v", s, want)
	}
}

func TestDerivedQuantities(t *testing.T) {
	s := Stats{PagesRead: 7, PagesWritten: 3, ReadCalls: 4, WriteCalls: 2, BufferFixes: 10, BufferHits: 6}
	if s.Pages() != 10 {
		t.Errorf("Pages = %d, want 10", s.Pages())
	}
	if s.Calls() != 6 {
		t.Errorf("Calls = %d, want 6", s.Calls())
	}
}

func TestReset(t *testing.T) {
	s := Stats{PagesRead: 1, BufferFixes: 2}
	s.Reset()
	if s != (Stats{}) {
		t.Errorf("Reset left %+v", s)
	}
}

func TestNormalize(t *testing.T) {
	s := Stats{PagesRead: 30, PagesWritten: 10, ReadCalls: 6, WriteCalls: 4, BufferFixes: 50, BufferHits: 20}
	n := s.Normalize(10)
	if n.PagesRead != 3 || n.PagesWritten != 1 || n.Pages != 4 {
		t.Errorf("page normalization wrong: %+v", n)
	}
	if n.ReadCalls != 0.6 || n.WriteCalls != 0.4 || n.Calls != 1 {
		t.Errorf("call normalization wrong: %+v", n)
	}
	if n.Fixes != 5 || n.Hits != 2 {
		t.Errorf("fix normalization wrong: %+v", n)
	}
}

func TestNormalizePanicsOnZeroUnits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normalize(0) did not panic")
		}
	}()
	Stats{}.Normalize(0)
}

func TestStringMentionsEveryCounter(t *testing.T) {
	s := Stats{PagesRead: 1, PagesWritten: 2, ReadCalls: 3, WriteCalls: 4, BufferFixes: 5, BufferHits: 6}
	str := s.String()
	for _, want := range []string{"pagesR=1", "pagesW=2", "callsR=3", "callsW=4", "fixes=5", "hits=6"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
