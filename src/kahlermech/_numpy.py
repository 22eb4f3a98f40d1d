"""numpy at first use: ``simulate`` never reads ``np``, so it never loads
numpy.  The first attribute read imports numpy and copies its names onto
``np``, so later reads are plain attribute reads.  Nothing lazy goes into
``sys.modules``."""


class _Numpy:
    def __getattr__(self, name):
        import numpy
        self.__dict__.update(vars(numpy))
        return getattr(numpy, name)


np = _Numpy()
