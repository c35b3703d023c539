"""Reach hook: record which ``src/repro`` code runs, and who calls it.

Python imports this module at start-up when ``tools/`` is on
``PYTHONPATH``; it does nothing unless ``REACH_DIR`` names a directory
(``tools/reach.py`` sets both).  Each process then writes one JSON list of
``[caller, callee]`` edges into that directory when it exits.  A key is
``"relpath:first_line:name"``, the first line being a decorated function's
first decorator, as in ``co_firstlineno``.  A caller outside the
repository (the standard library, a dataclass' generated ``__init__``) is
replaced by its nearest caller inside it, or by ``"?"`` when there is none,
as at the bottom of a pool thread.
"""

import atexit
import json
import os
import subprocess
import sys
import threading
import time

OUT = os.environ.get("REACH_DIR")

if OUT:
    HERE = os.path.dirname(os.path.abspath(__file__))
    ROOT = os.path.dirname(HERE) + os.sep
    _keys: dict = {}  # id(code) -> (code, key or None); the code stays alive
    _edges: set = set()

    def _key(code):
        hit = _keys.get(id(code))
        if hit is None:
            path = code.co_filename
            if not path.startswith("<"):
                path = os.path.abspath(path)
            key = None
            if path.startswith(ROOT) and not path.startswith(HERE):
                key = f"{path[len(ROOT):]}:{code.co_firstlineno}:{code.co_name}"
            hit = _keys[id(code)] = (code, key)
        return hit[1]

    def _profile(frame, event, arg):
        if event != "call":
            return
        callee = _key(frame.f_code)
        if callee is None or not callee.startswith("src/repro/"):
            return
        caller = frame.f_back
        while caller is not None and _key(caller.f_code) is None:
            caller = caller.f_back
        _edges.add((_key(caller.f_code) if caller is not None else "?", callee))

    def _dump():
        name = f"{os.getpid()}-{time.monotonic_ns()}.json"
        with open(os.path.join(OUT, name), "w") as out:
            json.dump(sorted(_edges), out)

    # pytest-benchmark clears the profiler around each timed call; setting
    # ``None`` puts the hook back instead.
    _setprofile = sys.setprofile
    sys.setprofile = lambda func: _setprofile(_profile if func is None else func)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)

    # A forked child leaves through ``os._exit``, which skips ``atexit``.
    _os_exit = os._exit

    def _exit(status):
        _dump()
        _os_exit(status)

    os._exit = _exit

    # A child given its own environment still loads this hook.
    _popen_init = subprocess.Popen.__init__

    def _popen(self, *args, env=None, **kwargs):
        if env is not None:
            path = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
            if HERE not in path:
                path.insert(0, HERE)
            env = {**env, "REACH_DIR": OUT, "PYTHONPATH": os.pathsep.join(path)}
        _popen_init(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = _popen
