// Package regress is the bench-regression gate. Every BENCH_*.json
// artifact has one shape: a schema tag and a flat, ordered list of
// records, each a named number or text value carrying its own gate.
// Compare checks a fresh artifact against the committed one, reading
// the gate policy from the committed records only, so a regenerated
// artifact can never loosen the gate it is checked against.
//
// The package takes bytes and returns findings; all file I/O and exit
// codes live in cmd/benchsuite, keeping this package environment-free.
package regress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Schema tags every artifact this package encodes and compares.
const Schema = "spiderfs-bench/2"

// Gate is the check a committed record imposes on its fresh
// counterpart.
type Gate string

const (
	// Exact: value and text equal the committed record's.
	Exact Gate = "exact"
	// Band: value within Bound×|committed value| of the committed value.
	Band Gate = "band"
	// Min: value ≥ Bound (absolute).
	Min Gate = "min"
	// Max: value ≤ Bound (absolute).
	Max Gate = "max"
	// Recorded: kept for the reader, never gated (wall-clock figures).
	Recorded Gate = "recorded"
)

// Record is one measured quantity. Name is a slash path whose first
// segment is the suite, e.g. sweep/e3-slowdisk/fingerprint. Text
// carries hashes and class names, Value numbers (booleans as 0/1).
// Bound is relative for Band and absolute for Min and Max; a generator
// that wants a bound relative to its own value writes it out already
// scaled.
type Record struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Text  string  `json:"text,omitempty"`
	Unit  string  `json:"unit,omitempty"`
	Gate  Gate    `json:"gate"`
	Bound float64 `json:"bound,omitempty"`
}

// Bool encodes a boolean record value.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Find returns the record with the given name.
func Find(recs []Record, name string) (Record, bool) {
	for _, r := range recs {
		if r.Name == name {
			return r, true
		}
	}
	return Record{}, false
}

type artifact struct {
	Schema  string   `json:"schema"`
	Records []Record `json:"records"`
}

// Encode renders records as an artifact, one record per line so a
// diff of two artifacts reads record by record.
func Encode(recs []Record) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"schema\": %q,\n  \"records\": [", Schema)
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("regress: encode %s: %w", r.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.Write(line)
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes(), nil
}

// Render formats records as a fixed-width table for stdout.
func Render(recs []Record) string {
	var b strings.Builder
	for _, r := range recs {
		v := r.Text
		if v == "" {
			v = strconv.FormatFloat(r.Value, 'g', 8, 64)
		}
		fmt.Fprintf(&b, "%-56s %18s %-6s %s\n", r.Name, v, r.Unit, r.policy())
	}
	return b.String()
}

// policy describes the record's gate, e.g. "min 1" or "band ±1e-09".
func (r Record) policy() string {
	switch r.Gate {
	case Band:
		return fmt.Sprintf("band ±%g", r.Bound)
	case Min, Max:
		return fmt.Sprintf("%s %g", r.Gate, r.Bound)
	}
	return string(r.Gate)
}

// Finding is one gate violation.
type Finding struct {
	Artifact string // file name, e.g. BENCH_sweep.json
	Record   string // record name, empty for artifact-level findings
	Check    string // the committed gate, or schema, missing, gate
	Detail   string // committed-vs-fresh explanation
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Artifact, f.Record, f.Check, f.Detail)
}

func decode(name, which string, data []byte) (artifact, error) {
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("regress %s: %s artifact: %w", name, which, err)
	}
	return a, nil
}

// Compare gates a fresh artifact against the committed one. Each
// committed gated record must be present in the fresh artifact, carry
// the same gate, and satisfy the committed gate and bound. A fresh
// artifact with a different schema is itself a finding. The returned
// error covers malformed input, not regressions.
func Compare(name string, committed, fresh []byte) ([]Finding, error) {
	c, err := decode(name, "committed", committed)
	if err != nil {
		return nil, err
	}
	if c.Schema != Schema {
		return nil, fmt.Errorf("regress %s: unknown schema %q", name, c.Schema)
	}
	f, err := decode(name, "fresh", fresh)
	if err != nil {
		return nil, err
	}
	if f.Schema != c.Schema {
		return []Finding{{name, "", "schema",
			fmt.Sprintf("committed %q vs fresh %q", c.Schema, f.Schema)}}, nil
	}
	byName := make(map[string]Record, len(f.Records))
	for _, r := range f.Records {
		byName[r.Name] = r
	}
	var out []Finding
	for _, cr := range c.Records {
		fr, ok := byName[cr.Name]
		kind, detail, err := check(cr, fr, ok)
		if err != nil {
			return nil, fmt.Errorf("regress %s: %w", name, err)
		}
		if detail != "" {
			out = append(out, Finding{name, cr.Name, kind, detail})
		}
	}
	return out, nil
}

// check applies committed record c to fresh record f (present says
// whether the fresh artifact has it). A violation returns the finding's
// check kind and a non-empty detail.
func check(c, f Record, present bool) (kind, detail string, err error) {
	switch c.Gate {
	case Exact, Band, Min, Max, Recorded:
	default:
		return "", "", fmt.Errorf("record %s: unknown gate %q", c.Name, c.Gate)
	}
	switch {
	case !present && c.Gate == Recorded:
		return "", "", nil
	case !present:
		return "missing", "absent from fresh run", nil
	case f.Gate != c.Gate:
		return "gate", fmt.Sprintf("fresh gate %q, committed %q", f.Gate, c.Gate), nil
	}
	kind = string(c.Gate)
	switch c.Gate {
	case Exact:
		if f.Text != c.Text {
			detail = fmt.Sprintf("%q != committed %q", f.Text, c.Text)
		} else if f.Value != c.Value {
			detail = fmt.Sprintf("%v != committed %v", f.Value, c.Value)
		}
	case Band:
		if math.Abs(f.Value-c.Value) > c.Bound*math.Abs(c.Value) {
			detail = fmt.Sprintf("%v outside ±%g of committed %v", f.Value, c.Bound, c.Value)
		}
	case Min:
		if f.Value < c.Bound {
			detail = fmt.Sprintf("%v below floor %v (committed %v)", f.Value, c.Bound, c.Value)
		}
	case Max:
		if f.Value > c.Bound {
			detail = fmt.Sprintf("%v above ceiling %v (committed %v)", f.Value, c.Bound, c.Value)
		}
	}
	return kind, detail, nil
}
