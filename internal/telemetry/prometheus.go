// Prometheus text-format exposition (version 0.0.4) and a minimal
// hand-rolled parser for it. The parser exists so tests and smoke checks
// can verify the exposition without importing a Prometheus client: it
// accepts exactly the subset the writer emits (HELP/TYPE comments,
// `name{labels} value` samples) plus unlabeled samples from other
// writers of the same subset.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the scrape response Content-Type for the text format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus
// text format, families sorted by name, samples sorted by label set —
// deterministic output for golden tests and clean diffs between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names := r.Families()
	r.mu.Lock()
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		metrics := append([]sampler(nil), f.metrics...)
		f.mu.Unlock()
		if len(metrics) == 0 {
			continue
		}
		sort.SliceStable(metrics, func(i, j int) bool {
			return metrics[i].labelString() < metrics[j].labelString()
		})
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, m := range metrics {
			m.sampleLines(&b, f.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels} value` line.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string            // family name including _bucket/_sum/_count suffixes
	Labels map[string]string // nil when unlabeled
	Value  float64
}

// Parsed is the result of ParseText: family types plus every sample.
type Parsed struct {
	// Types maps family name → "counter"/"gauge"/"histogram".
	Types map[string]string
	// Help maps family name → HELP text.
	Help map[string]string
	// Samples in exposition order.
	Samples []Sample
}

// Value returns the single sample matching name and the given label
// pairs exactly (order-insensitive), or an error naming the miss.
func (p *Parsed) Value(name string, labels map[string]string) (float64, error) {
	for _, s := range p.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, nil
		}
	}
	return 0, fmt.Errorf("telemetry: no sample %s%v", name, labels)
}

// ParseText parses Prometheus text-format exposition. It is strict
// about line shape (a malformed line is an error, not a skip) so the
// golden tests actually verify the writer.
func ParseText(r io.Reader) (*Parsed, error) {
	p := &Parsed{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment", lineNo)
				}
				p.Types[fields[2]] = fields[3]
			} else if len(fields) >= 3 && fields[1] == "HELP" {
				help := ""
				if len(fields) == 4 {
					help = fields[3]
				}
				p.Help[fields[2]] = help
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		p.Samples = append(p.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		s.Name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair in %q", s)
		}
		name := s[:eq]
		if !validLabelName(name) && name != "le" {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", name)
		}
		// Scan the quoted value honoring backslash escapes.
		val, rest, err := scanQuoted(s)
		if err != nil {
			return nil, fmt.Errorf("label %q: %w", name, err)
		}
		labels[name] = val
		s = rest
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' after label %q", name)
			}
			s = s[1:]
		}
	}
	return labels, nil
}

// scanQuoted consumes a leading double-quoted string with \\, \", and
// \n escapes, returning the unescaped value and the remainder.
func scanQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}
