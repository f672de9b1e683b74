package framework

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
)

// ExportImporter returns a types.Importer that reads gc export data files.
// exports maps an import path to its export file (as reported by
// `go list -export`); importMap optionally remaps source-level import
// paths first (the vet unit-checker protocol supplies one).
func ExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
