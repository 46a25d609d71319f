"""Set-up probe: import the program and build the cold-search workload.

Started in a fresh interpreter by ``run.py``, which times it from
launch until the ``ready`` line: importing ``repro`` and building every
search's facade and cost engine is the set-up a direct user pays.
"""

import sys

import direct


def main() -> None:
    for search in direct.cold_searches(int(sys.argv[1])):
        search.build()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
