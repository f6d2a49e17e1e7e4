// Package cli holds the flag and output plumbing of the lotus-sim command:
// cmd/lotus-sim dispatches its subcommands (list, run, figures, scenarios,
// serve) to the functions here, so flag names, figure and scenario lookup,
// and artifact encoding are defined exactly once.
package cli

import (
	"fmt"
	"io"

	"lotuseater/internal/metrics"
)

// Format selects how an artifact is encoded for output.
type Format string

// Output formats accepted by -format.
const (
	FormatText Format = "text"
	FormatCSV  Format = "csv"
	FormatJSON Format = "json"
)

// ParseFormat maps a -format flag value to a Format.
func ParseFormat(name string) (Format, error) {
	switch Format(name) {
	case FormatText, FormatCSV, FormatJSON:
		return Format(name), nil
	default:
		return "", fmt.Errorf("unknown format %q (want text|csv|json)", name)
	}
}

// EmitArtifact writes one experiment artifact to w in the given format.
func EmitArtifact(w io.Writer, a *metrics.Artifact, format Format) error {
	switch format {
	case FormatCSV:
		_, err := io.WriteString(w, a.CSV())
		return err
	case FormatJSON:
		data, err := a.JSON()
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	default:
		_, err := io.WriteString(w, a.Text())
		return err
	}
}
