package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSeries is one parsed Prometheus text sample.
type promSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promText is a parsed Prometheus text-format (0.0.4) exposition.
type promText []promSeries

// parsePromText parses the exposition obs.Registry.WritePrometheus writes:
// comment lines are skipped, every other line is `name{labels} value`.
func parsePromText(text string) (promText, error) {
	var out promText
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("promtext: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("promtext: value in %q: %w", line, err)
		}
		s := promSeries{Name: line[:sp], Value: v, Labels: map[string]string{}}
		if i := strings.IndexByte(s.Name, '{'); i >= 0 {
			if !strings.HasSuffix(s.Name, "}") {
				return nil, fmt.Errorf("promtext: unterminated labels in %q", line)
			}
			if err := parseLabels(s.Name[i+1:len(s.Name)-1], s.Labels); err != nil {
				return nil, fmt.Errorf("promtext: %q: %w", line, err)
			}
			s.Name = s.Name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"` (no escaped quotes: the registry's
// label values are model names, reasons and indices).
func parseLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("bad label %q", body)
		}
		end := strings.IndexByte(body[eq+2:], '"')
		if end < 0 {
			return fmt.Errorf("unterminated label value %q", body)
		}
		into[body[:eq]] = body[eq+2 : eq+2+end]
		body = strings.TrimPrefix(body[eq+2+end+1:], ",")
	}
	return nil
}

// sum adds every series of the named family, optionally restricted to
// series whose label key has the given value.
func (p promText) sum(name string, label, value string) float64 {
	var t float64
	for _, s := range p {
		if s.Name == name && (label == "" || s.Labels[label] == value) {
			t += s.Value
		}
	}
	return t
}

// histQuantile estimates quantile q (0..1) of a histogram family from its
// cumulative _bucket series, interpolating linearly inside the bucket as
// Prometheus' histogram_quantile does. minus, when non-nil, is an earlier
// scrape whose counts are subtracted first, so the estimate covers only
// the interval between the two scrapes.
func (p promText) histQuantile(name string, q float64, minus promText) float64 {
	counts := map[float64]float64{}
	for _, s := range p {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			if s.Labels["le"] != "+Inf" {
				continue
			}
			le = math.Inf(1)
		}
		counts[le] += s.Value
	}
	for _, s := range minus {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			le = math.Inf(1)
		}
		counts[le] -= s.Value
	}
	bounds := make([]float64, 0, len(counts))
	for b := range counts {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := counts[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	target := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := counts[b]
		if c >= target {
			if math.IsInf(b, 1) {
				return prevBound
			}
			if c == prevCount {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}
