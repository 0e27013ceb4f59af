package osgi

import (
	"fmt"
	"strings"

	"repro/internal/manifest"
)

// ResolutionError reports why a bundle could not be resolved.
type ResolutionError struct {
	Bundle  *Bundle
	Missing []string // unsatisfied mandatory import clauses, human-readable
}

func (e *ResolutionError) Error() string {
	return fmt.Sprintf("osgi: bundle %s unresolved: missing %s",
		e.Bundle.SymbolicName(), strings.Join(e.Missing, ", "))
}

// resolveLocked wires imports while fw.mu is held. On success the bundle
// transitions to Resolved; on failure its state and wires are unchanged.
func (fw *Framework) resolveLocked(b *Bundle) error {
	m := b.def.Manifest
	wires := map[string]*Bundle{}
	var missing []string
	for _, imp := range m.Imports {
		exporter := fw.findExporterLocked(b, imp)
		if exporter == nil {
			if imp.Optional {
				continue
			}
			missing = append(missing, fmt.Sprintf("%s %s", imp.Name, imp.Range))
			continue
		}
		wires[imp.Name] = exporter
	}
	if len(missing) > 0 {
		return &ResolutionError{Bundle: b, Missing: missing}
	}
	b.wires = wires
	b.state = Resolved
	return nil
}

// findExporterLocked picks the best exporter for the import clause:
// highest in-range export version wins; ties break to the lowest bundle
// id (oldest installed), matching Equinox behaviour.
func (fw *Framework) findExporterLocked(importer *Bundle, imp manifest.PackageImport) *Bundle {
	var best *Bundle
	var bestVersion manifest.Version
	for _, cand := range fw.bundles {
		if cand.state == Uninstalled || cand.id == importer.id {
			continue
		}
		mf := cand.def.Manifest
		if mf == nil {
			continue
		}
		for _, exp := range mf.Exports {
			if exp.Name != imp.Name || !imp.Range.Contains(exp.Version) {
				continue
			}
			switch c := exp.Version.Compare(bestVersion); {
			case best == nil || c > 0:
				best, bestVersion = cand, exp.Version
			case c == 0 && cand.id < best.id:
				best = cand
			}
		}
	}
	return best
}
