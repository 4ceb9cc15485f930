package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry at GET /metrics in the text exposition
// format. Every render is deterministic: families sorted by name, samples
// by label tuple.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		w.Write(r.Render()) //nolint:errcheck
	})
}

// Render returns the full text exposition of the registry.
func (r *Registry) Render() []byte {
	var buf bytes.Buffer
	r.WriteText(&buf)
	return buf.Bytes()
}

// WriteText renders every family into buf, families sorted by name. A
// family with no samples yet still renders its # HELP/# TYPE header, so
// scrapers (and the verify smoke) see the full schema from the first
// scrape.
func (r *Registry) WriteText(buf *bytes.Buffer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		fams[name].writeText(buf)
	}
}

// sample is one rendered line's worth of data.
type sample struct {
	labelValues []string
	value       float64
	hist        *histSnapshot
}

type histSnapshot struct {
	counts []uint64 // per-bucket, last = +Inf
	sum    float64
	count  uint64
}

func (f *family) writeText(buf *bytes.Buffer) {
	if f.help != "" {
		buf.WriteString("# HELP ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(f.help))
		buf.WriteByte('\n')
	}
	buf.WriteString("# TYPE ")
	buf.WriteString(f.name)
	buf.WriteByte(' ')
	buf.WriteString(f.kind.String())
	buf.WriteByte('\n')

	var samples []sample
	if f.collect != nil {
		// Scrape-time family: the callback runs without any registry lock
		// held, so it may freely take the instrumented layer's own locks.
		f.collect(func(v float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("metrics: %q collect emitted %d label values, want %d", f.name, len(labelValues), len(f.labels)))
			}
			samples = append(samples, sample{labelValues: append([]string(nil), labelValues...), value: v})
		})
	} else {
		f.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.Unlock()
		for _, c := range children {
			s := sample{labelValues: c.labelValues}
			if f.kind == KindHistogram {
				hs := &histSnapshot{counts: make([]uint64, len(c.counts))}
				for i := range c.counts {
					hs.counts[i] = c.counts[i].Load()
				}
				hs.sum = math.Float64frombits(c.sumBits.Load())
				hs.count = c.count.Load()
				s.hist = hs
			} else {
				s.value = math.Float64frombits(c.bits.Load())
			}
			samples = append(samples, s)
		}
	}
	// Deterministic sample order regardless of child-map iteration or
	// collect-callback emission order.
	sort.Slice(samples, func(i, j int) bool {
		return lessStrings(samples[i].labelValues, samples[j].labelValues)
	})
	for _, s := range samples {
		if f.kind == KindHistogram && s.hist != nil {
			f.writeHistogram(buf, s)
			continue
		}
		buf.WriteString(f.name)
		writeLabels(buf, f.labels, s.labelValues, "", "")
		buf.WriteByte(' ')
		buf.WriteString(formatValue(s.value))
		buf.WriteByte('\n')
	}
}

func (f *family) writeHistogram(buf *bytes.Buffer, s sample) {
	cum := uint64(0)
	for i, bound := range f.buckets {
		cum += s.hist.counts[i]
		buf.WriteString(f.name)
		buf.WriteString("_bucket")
		writeLabels(buf, f.labels, s.labelValues, "le", formatValue(bound))
		buf.WriteByte(' ')
		buf.WriteString(strconv.FormatUint(cum, 10))
		buf.WriteByte('\n')
	}
	cum += s.hist.counts[len(f.buckets)]
	buf.WriteString(f.name)
	buf.WriteString("_bucket")
	writeLabels(buf, f.labels, s.labelValues, "le", "+Inf")
	buf.WriteByte(' ')
	buf.WriteString(strconv.FormatUint(cum, 10))
	buf.WriteByte('\n')

	buf.WriteString(f.name)
	buf.WriteString("_sum")
	writeLabels(buf, f.labels, s.labelValues, "", "")
	buf.WriteByte(' ')
	buf.WriteString(formatValue(s.hist.sum))
	buf.WriteByte('\n')

	buf.WriteString(f.name)
	buf.WriteString("_count")
	writeLabels(buf, f.labels, s.labelValues, "", "")
	buf.WriteByte(' ')
	buf.WriteString(strconv.FormatUint(s.hist.count, 10))
	buf.WriteByte('\n')
}

// writeLabels renders {a="b",...} (nothing when there are no labels), with
// an optional extra label appended (the histogram le).
func writeLabels(buf *bytes.Buffer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	buf.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(n)
		buf.WriteString(`="`)
		buf.WriteString(escapeLabelValue(values[i]))
		buf.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(extraName)
		buf.WriteString(`="`)
		buf.WriteString(escapeLabelValue(extraValue))
		buf.WriteByte('"')
	}
	buf.WriteByte('}')
}

// formatValue renders a float the way the Prometheus text format expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper       = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string       { return helpEscaper.Replace(s) }
func escapeLabelValue(s string) string { return labelValueEscaper.Replace(s) }

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Family is one parsed metric family — what ParseText returns and spctl
// pretty-prints.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// ParsedSample is one parsed sample line.
type ParsedSample struct {
	// Name is the sample's full name (may carry a _bucket/_sum/_count
	// suffix for histogram series).
	Name string
	// Labels holds the label pairs in rendered order.
	Labels [][2]string
	// Value is the sample value.
	Value float64
}

// ParseText parses a Prometheus text-format exposition into families, in
// encounter order. Histogram series (_bucket/_sum/_count) attach to their
// base family. It is the promlint-style format check behind `spctl
// -metrics` and the verify smoke: malformed lines are errors, not skips.
func ParseText(r io.Reader) ([]Family, error) {
	var (
		out   []Family
		index = make(map[string]int)
	)
	famFor := func(name string) *Family {
		if i, ok := index[name]; ok {
			return &out[i]
		}
		index[name] = len(out)
		out = append(out, Family{Name: name})
		return &out[len(out)-1]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				f := famFor(fields[2])
				rest := ""
				if len(fields) == 4 {
					rest = fields[3]
				}
				if fields[1] == "HELP" {
					f.Help = rest
				} else {
					f.Type = rest
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		base := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(base, suffix)
			if trimmed != base {
				if _, ok := index[trimmed]; ok {
					base = trimmed
				}
				break
			}
		}
		f := famFor(base)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSampleLine parses `name{a="b",...} value` (labels optional).
func parseSampleLine(line string) (ParsedSample, error) {
	var s ParsedSample
	rest := line
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may trail the value; take the first field as the value.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a {a="b",...} block starting at s[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(s string) (int, [][2]string, error) {
	var labels [][2]string
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[i : i+eq])
		if !validLabelName(name) && name != "le" {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in %q", s[i+1], s)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, [2]string{name, val.String()})
	}
}
