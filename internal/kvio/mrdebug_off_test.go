//go:build !mrdebug

package kvio

// mrdebugBuild relaxes the sort's allocation pins under -tags mrdebug,
// where every sort also builds the reference it is checked against.
const mrdebugBuild = false
