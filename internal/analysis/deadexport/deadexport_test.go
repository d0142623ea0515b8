package deadexport_test

import (
	"testing"

	"cdml/internal/analysis/analysistest"
	"cdml/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "../testdata/src/deadexport/internal", deadexport.Analyzer)
}
