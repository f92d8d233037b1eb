package dts

// SetLineageForTest overrides the graph lineage the Options.Reuse gate
// checks, so a regression test can forge a pre-edit DTS into the
// current version's lineage and prove a gate without the version check
// serves stale time points.
func (d *DTS) SetLineageForTest(gid, gver uint64) { d.gid, d.gver = gid, gver }
