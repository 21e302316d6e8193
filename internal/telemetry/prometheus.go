package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per family, series lines
// sorted deterministically, histograms expanded into cumulative _bucket
// lines plus _sum and _count. The output for a quiesced registry is
// byte-stable, which is what the exposition golden test pins.
func WritePrometheus(w io.Writer, snap []FamilySnapshot) error {
	for _, f := range snap {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			var err error
			if s.Buckets != nil {
				err = writeHistogram(w, f, s)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(s.Labels, "", ""), formatValue(s.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ContentType is the exposition format's content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// SampleValue returns one sample's value from a text exposition, looking
// the series up exactly as WritePrometheus renders it: the bare name for an
// unlabeled series, name{k="v",...} for a labeled one, and the _bucket,
// _sum and _count lines of a histogram. ok is false when no line carries
// the series or its value does not parse.
func SampleValue(exposition, series string) (v float64, ok bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func writeHistogram(w io.Writer, f FamilySnapshot, s SeriesSnapshot) error {
	for i, cum := range s.Buckets {
		le := "+Inf"
		if i < len(f.Bounds) {
			le = formatValue(f.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labelString(s.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, labelString(s.Labels, "", ""), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, labelString(s.Labels, "", ""), s.Count)
	return err
}

// labelString renders {k="v",...}, appending an extra label (histogram
// "le") when extraKey is non-empty; empty label sets render as nothing.
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus clients expect: shortest
// round-trip representation, integers without an exponent or decimal.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
