package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(n-1, i))
}

// tailPercentiles is the ladder the tail latency is chosen from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it; fewer than eleven
// samples fall back to the maximum (percentile 100). Workloads pass the
// sample count their minimum repetition count guarantees, so the
// percentile reported does not change with how many repetitions fit in
// a run.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-(rankIndex(n, p)+1) >= 10 {
			return p
		}
	}
	return 100
}

// floatTol is the relative tolerance of the correctness check for
// non-integral numbers. Counts compare exactly.
const floatTol = 1e-12

// sameJSON compares two JSON documents structurally: objects by key
// set, arrays element-wise, integers exactly and other numbers within
// floatTol relative. It returns the first difference found, or "".
func sameJSON(want, got []byte) string {
	w, err := decodeJSON(want)
	if err != nil {
		return "expected document: " + err.Error()
	}
	g, err := decodeJSON(got)
	if err != nil {
		return "actual document: " + err.Error()
	}
	return diffValue("$", w, g)
}

func decodeJSON(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

func diffValue(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: want object, got %T", path, got)
		}
		for k := range w {
			if _, ok := g[k]; !ok {
				return fmt.Sprintf("%s.%s: missing", path, k)
			}
		}
		keys := make([]string, 0, len(g))
		for k := range g {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			wv, ok := w[k]
			if !ok {
				return fmt.Sprintf("%s.%s: unexpected", path, k)
			}
			if d := diffValue(path+"."+k, wv, g[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: want array, got %T", path, got)
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: want %d elements, got %d", path, len(w), len(g))
		}
		for i := range w {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
		return ""
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			return fmt.Sprintf("%s: want number, got %T", path, got)
		}
		if isInteger(w) && isInteger(g) {
			if w != g {
				return fmt.Sprintf("%s: want %s, got %s", path, w, g)
			}
			return ""
		}
		wf, err1 := w.Float64()
		gf, err2 := g.Float64()
		if err1 != nil || err2 != nil || !closeEnough(wf, gf) {
			return fmt.Sprintf("%s: want %s, got %s", path, w, g)
		}
		return ""
	default:
		if want != got {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
		return ""
	}
}

func isInteger(n json.Number) bool {
	return !strings.ContainsAny(string(n), ".eE")
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}
