//go:build mrdebug

package kvio

const mrdebugBuild = true
