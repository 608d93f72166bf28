package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a metrics registry in the Prometheus text
// format, keyed by series: the family (or _bucket/_sum/_count) name followed
// by its rendered labels, e.g. `janus_engine_steps_total{path="graph"}`.
// The benchmark reads the program's registries only through this public
// exposition, at the same boundaries where it records spans, and works on
// deltas between two scrapes.
type promSnapshot map[string]float64

// scrape renders a registry through its WriteText-style method and parses
// the result.
func scrape(write func(io.Writer) error) (promSnapshot, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return parseProm(&buf)
}

// parseProm parses the Prometheus text exposition format (comments and
// blank lines skipped).
func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// merge returns the series-wise sum of several scrapes (e.g. the private
// registries of several worker engines).
func merge(snaps ...promSnapshot) promSnapshot {
	out := promSnapshot{}
	for _, s := range snaps {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// delta returns s - base for every series of s; a series absent from base
// (registered between the scrapes) counts from zero.
func (s promSnapshot) delta(base promSnapshot) promSnapshot {
	out := make(promSnapshot, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// splitSeries separates a series key into its name and label pairs.
func splitSeries(key string) (name string, labels map[string]string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	name, body := key[:i], strings.TrimSuffix(key[i+1:], "}")
	labels = map[string]string{}
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		k := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		j := 0
		for ; j < len(rest) && rest[j] != '"'; j++ {
			if rest[j] == '\\' && j+1 < len(rest) {
				j++
				if rest[j] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[j])
		}
		labels[k] = val.String()
		body = strings.TrimPrefix(rest[min(j+1, len(rest)):], ",")
	}
	return name, labels
}

// matches reports whether labels carry every key="value" pair of match
// (alternating keys and values).
func matches(labels map[string]string, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// sum adds up every series of the named family whose labels include the
// given key/value pairs (0 when the family is absent).
func (s promSnapshot) sum(name string, match ...string) float64 {
	total := 0.0
	for k, v := range s {
		n, labels := splitSeries(k)
		if n == name && matches(labels, match) {
			total += v
		}
	}
	return total
}

// histCount and histSum read a histogram family's observation count and
// value sum (summed over the matching series).
func (s promSnapshot) histCount(name string, match ...string) float64 {
	return s.sum(name+"_count", match...)
}

func (s promSnapshot) histSum(name string, match ...string) float64 {
	return s.sum(name+"_sum", match...)
}

// histQuantile estimates the q-quantile (0 < q <= 1) of a histogram family
// from its cumulative buckets, merged over the matching series, the way
// Prometheus' histogram_quantile does: linear interpolation inside the
// bucket holding the rank, the lower edge of the first bucket being 0 and
// ranks in the +Inf bucket clamped to the largest finite bound. 0 when the
// histogram has no observations.
func (s promSnapshot) histQuantile(name string, q float64, match ...string) float64 {
	cum := map[float64]float64{}
	for k, v := range s {
		n, labels := splitSeries(k)
		if n != name+"_bucket" || !matches(labels, match) {
			continue
		}
		le, err := strconv.ParseFloat(labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += v
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	total := cum[bounds[len(bounds)-1]]
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, le := range bounds {
		c := cum[le]
		if c >= rank && c > prevCum {
			if math.IsInf(le, 1) {
				return prevBound
			}
			return prevBound + (le-prevBound)*(rank-prevCum)/(c-prevCum)
		}
		if !math.IsInf(le, 1) {
			prevBound = le
		}
		prevCum = c
	}
	return prevBound
}
