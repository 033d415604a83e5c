import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # The process is about to end: freezing every object it built spares
    # them the full collections that interpreter finalization would run.
    gc.freeze()
    sys.exit(code)
