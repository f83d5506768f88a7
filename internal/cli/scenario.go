package cli

import (
	"flag"

	"cos/internal/scenario"
	_ "cos/internal/scenario/all" // register the built-in scenario components
)

// ScenarioFlags registers the scenario flag pair shared by cos-sim and
// cos-figures — one definition so the two binaries' help text and
// semantics cannot drift. Call before fs is parsed. The -scenario value
// must resolve to a registered preset (scenario.FromRef), so an unknown
// or malformed ref fails flag parsing — exit 2 under the default error
// handling — before any work starts; an absent flag leaves ref "".
func ScenarioFlags(fs *flag.FlagSet) (ref *string, list *bool) {
	ref = new(string)
	fs.Func("scenario", "scenario preset reference, name[:p1,p2,...] (see -list-scenarios)",
		func(s string) error {
			if _, err := scenario.FromRef(s); err != nil {
				return err
			}
			*ref = s
			return nil
		})
	list = fs.Bool("list-scenarios", false,
		"list the registered scenario presets and exit")
	return ref, list
}
