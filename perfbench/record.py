"""Record the expected exit code and stdout digest of every invocation.

    python3 perfbench/record.py

Run from the root of a source tree whose outputs are the reference; it
rewrites perfbench/expected.json.  Re-record only in a change that states
why the CLI output changes.
"""

import json

from run import EXPECTED, ROOT, SRC, cli_args
from spawn import child_env, run_timed
from workloads import SETUP_ARGV, WORKLOADS, invocation_key


def main():
    env = child_env(SRC)
    expected = {}
    for argv in [SETUP_ARGV] + [a for w in WORKLOADS.values() for a in w]:
        out = run_timed(cli_args(argv), env, ROOT, 600.0)
        if out.timed_out:
            raise SystemExit(f"{' '.join(argv)} timed out")
        expected[invocation_key(argv)] = {"exit": out.exit_code,
                                          "sha256": out.sha256}
        print(f"{out.wall_s:7.3f} s  exit {out.exit_code}  {' '.join(argv)}")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
