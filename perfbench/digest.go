package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"vcpusim/internal/stats"
)

// digester canonicalizes a run's simulated outputs into lines and hashes
// them. Floats are written in hex-float form so that two digests agree
// exactly when the outputs agree bit for bit, and maps are written in
// sorted-key order.
type digester struct {
	lines []string
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// interval records one confidence interval under a label.
func (d *digester) interval(label string, iv stats.Interval) {
	d.lines = append(d.lines, label+"|"+hexFloat(iv.Mean)+"|"+hexFloat(iv.HalfWidth)+"|"+hexFloat(iv.Level)+"|"+strconv.FormatInt(iv.N, 10))
}

// metrics records a metric map in sorted-key order under a label prefix.
func (d *digester) metrics(prefix string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.lines = append(d.lines, prefix+"|"+name+"|"+hexFloat(m[name]))
	}
}

// sum returns the digest: the first 16 hex digits of the SHA-256 of the
// lines.
func (d *digester) sum() string {
	h := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return hex.EncodeToString(h[:8])
}
