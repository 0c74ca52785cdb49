package portfolio

import (
	"errors"
	"testing"
)

func TestPickLeastAreaFeasible(t *testing.T) {
	boom := errors.New("boom")
	outs := []Outcome{
		{Name: "a", Area: 50},
		{Name: "b", Area: 30},
		{Name: "c", Err: boom},
		{Name: "d", Area: 40},
	}
	if got := Pick(outs); got != 1 {
		t.Fatalf("Pick = %d, want 1", got)
	}
}

func TestPickDeterministicTieBreak(t *testing.T) {
	// Equal areas: the lexicographically smaller name wins no matter the
	// completion (slice) order.
	if got := Pick([]Outcome{{Name: "zeta", Area: 10}, {Name: "alpha", Area: 10}}); got != 1 {
		t.Fatalf("Pick = %d, want 1 (alpha)", got)
	}
	if got := Pick([]Outcome{{Name: "alpha", Area: 10}, {Name: "zeta", Area: 10}}); got != 0 {
		t.Fatalf("Pick = %d, want 0 (alpha)", got)
	}
}

func TestPickNoWinner(t *testing.T) {
	if got := Pick(nil); got != -1 {
		t.Fatalf("Pick(nil) = %d", got)
	}
	if got := Pick([]Outcome{{Name: "a", Err: errors.New("x")}}); got != -1 {
		t.Fatalf("Pick = %d, want -1", got)
	}
}

func TestNormalize(t *testing.T) {
	defaults := []string{"dpalloc", "twostage"}
	got, err := Normalize(nil, defaults, "portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "dpalloc" || got[1] != "twostage" {
		t.Fatalf("defaults not applied: %v", got)
	}
	got, err = Normalize([]string{"a", "b", "a", "c", "b"}, defaults, "portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("dedup broken: %v", got)
	}
	if _, err := Normalize([]string{"portfolio"}, defaults, "portfolio"); err == nil {
		t.Fatal("self-recursion accepted")
	}
	if _, err := Normalize([]string{""}, defaults, "portfolio"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Normalize(nil, nil, "portfolio"); err == nil {
		t.Fatal("empty entrant list accepted")
	}
}
