"""Run ``hessmc map`` and print the CPU time it took, interpreter start included.

Usage (with the package's sources on PYTHONPATH):
    python3 perfbench/map_cpu.py --config CFG --out DIR

It does what ``python3 -m hessmc map --config CFG --out DIR`` does, then
prints ``time.process_time()`` as its last line: the CPU seconds of this
process from its start, through the imports and the map work, to the return
of ``hessmc.cli.main``. Interpreter shutdown is left out; it took about 0.2 s
of a 1.5 s process and varied more than the rest. The exit code is the CLI's.
"""

import sys
import time

from hessmc.cli import main

code = main(["map", *sys.argv[1:]])
print(time.process_time())
sys.exit(code)
