//go:build !poison

package longobj

func poisonScratch([]byte) {} // ordinary builds: read scratch is reused as it is
