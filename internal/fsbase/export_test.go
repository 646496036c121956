package fsbase

import "slices"

// Ext exposes the extent entry type to the external tests.
type Ext = ext

// Entries returns a copy of the file's extent entries.
func (f *File) Entries() []Ext {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return slices.Clone(f.node.ext.All())
}

// SetEntries replaces the file's extent entries wholesale.
func (f *File) SetEntries(ents []Ext) {
	f.node.mu.Lock()
	f.node.ext.Reset(slices.Clone(ents))
	f.node.mu.Unlock()
}
