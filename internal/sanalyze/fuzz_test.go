package sanalyze_test

import (
	"fmt"
	"strings"
	"testing"

	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
)

// byteSource hands out fuzz input bytes, then zeros once exhausted.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeStructure turns fuzz bytes into a small structure: up to six
// places (some extended), up to six timed or instantaneous activities
// in two submodels, links carrying 0–2 tokens to existing and dangling
// place names, case weights, an occasional gate component, a reward and
// a conservation law.
func decodeStructure(data []byte) san.Structure {
	src := byteSource(data)
	st := san.Structure{Name: "fuzz"}
	nPlaces := 1 + src.next()%6
	for i := 0; i < nPlaces; i++ {
		b := src.next()
		p := san.PlaceInfo{Name: fmt.Sprintf("s/p%d", i), Joins: []string{"s"}}
		if b%4 == 3 {
			p.Extended = true
		} else {
			p.Initial = (b >> 2) % 3
			p.Capacity = (b >> 4) % 3
		}
		if b&0x40 != 0 {
			p.Joins = append(p.Joins, "t")
		}
		st.Places = append(st.Places, p)
	}
	placeName := func(b int) string {
		if i := b % (nPlaces + 1); i < nPlaces {
			return st.Places[i].Name
		}
		return "s/ghost"
	}
	nActs := src.next() % 7
	for i := 0; i < nActs; i++ {
		b := src.next()
		sub := "s"
		if b&2 != 0 {
			sub = "t"
		}
		a := san.ActivityInfo{Name: fmt.Sprintf("%s/a%d", sub, i), Kind: san.Timed, Priority: (b >> 2) % 3}
		if b&1 != 0 {
			a.Kind = san.Instantaneous
		}
		if b&0x10 != 0 {
			a.GatePredicates = 1
		}
		if b&0x20 != 0 {
			a.GateCases = 1 + (b>>6)%2
		}
		for l, nLinks := 0, src.next()%4; l < nLinks; l++ {
			lb := src.next()
			link := san.Link{Kind: san.LinkInput, Place: placeName(lb >> 3), Tokens: (lb >> 1) % 3}
			if lb&1 != 0 {
				link.Kind = san.LinkOutput
			} else if link.Tokens > 0 {
				a.Predicates++
			}
			a.Links = append(a.Links, link)
		}
		a.Predicates += a.GatePredicates
		for c := 0; c < a.GateCases; c++ {
			a.Cases = append(a.Cases, san.CaseInfo{Weight: float64(src.next()%5) / 4})
		}
		st.Activities = append(st.Activities, a)
	}
	if b := src.next(); b&1 != 0 {
		st.Rewards = append(st.Rewards, san.RewardInfo{
			Name: "r", Kind: san.RewardRate, Refs: []string{placeName(b >> 1)},
		})
	}
	if b := src.next(); b&1 != 0 {
		st.Conservations = append(st.Conservations, san.Conservation{
			Name: "law",
			Weights: []san.PlaceWeight{
				{Place: placeName(b >> 1), Weight: 1},
				{Place: placeName(b >> 4), Weight: 1 + (b>>7)%2},
			},
		})
	}
	return st
}

// FuzzAnalyzeStructure runs Lint and Analyze twice over arbitrary small
// structures. Both must render byte-identically, and no place may be
// reported unbounded twice.
func FuzzAnalyzeStructure(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 1, 3, 0, 1, 3})                      // two producers pump one place
	f.Add([]byte{0, 4, 2, 0, 1, 3, 0, 1, 2})                      // producer and consumer
	f.Add([]byte{1, 4, 0, 2, 1, 2, 2, 0x0b, 1, 2, 0x0a, 3, 3, 0}) // instantaneous token cycle
	f.Add([]byte{6, 7, 3, 0x44, 0, 8, 5, 6, 0x33, 3, 0x13, 0x25, 0x0f, 0xff, 0xff})
	opt := sanalyze.Options{MaxStates: 64, MaxFirings: 512, StabilizeCap: 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := decodeStructure(data)
		render := func() string {
			var b strings.Builder
			for _, f := range sanalyze.Lint(st) {
				fmt.Fprintf(&b, "%s\n", f)
			}
			sanalyze.Analyze(st, opt).Write(&b)
			return b.String()
		}
		if a, b := render(), render(); a != b {
			t.Fatalf("non-deterministic rendering:\n%s\n---\n%s", a, b)
		}
		seen := map[string]bool{}
		for _, f := range sanalyze.Analyze(st, opt).Findings {
			if f.Check != sanalyze.CheckUnbounded {
				continue
			}
			if seen[f.Component] {
				t.Fatalf("%s reported unbounded twice", f.Component)
			}
			seen[f.Component] = true
		}
	})
}
