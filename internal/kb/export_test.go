package kb

// The package's helpers its external tests use.
var (
	SampleKB      = sampleKB
	MovieOntology = movieOntology
	NewFieldKey   = newFieldKey
)

// ObjectItem resolves a triple object to its item.
func (ix *Index) ObjectItem(o Object) (ItemID, bool) { return ix.objectItem(o) }
