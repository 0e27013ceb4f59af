package manifest

// PackageExport is one clause of Export-Package.
type PackageExport struct {
	Name    string
	Version Version
}

// PackageImport is one clause of Import-Package.
type PackageImport struct {
	Name     string
	Range    Range
	Optional bool
}

// Manifest is a bundle manifest.
type Manifest struct {
	SymbolicName string
	Version      Version
	Imports      []PackageImport
	Exports      []PackageExport
	// DRComComponents lists the component descriptor resources declared in
	// the DRCom-Components header, the DRCom analogue of Service-Component.
	DRComComponents []string
	// ServiceComponents lists declarative-service descriptor resources.
	ServiceComponents []string
}

// New builds a minimal valid manifest.
func New(symbolicName string, version Version) *Manifest {
	return &Manifest{SymbolicName: symbolicName, Version: version}
}
